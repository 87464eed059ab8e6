// Package dnsjson implements the application/dns-json representation of DNS
// messages (draft-bortzmeyer-dns-json, as deployed by Google's /resolve
// endpoint and Cloudflare's JSON API). The landscape survey (Table 2)
// probes DoH servers for this content type alongside the RFC-mandated
// application/dns-message wireformat.
package dnsjson

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/netip"
	"net/url"
	"strconv"
	"strings"

	"dohcost/internal/dnswire"
)

// ContentType is the MIME type of this encoding.
const ContentType = "application/dns-json"

// RR is one resource record in JSON form.
type RR struct {
	Name string `json:"name"`
	Type uint16 `json:"type"`
	TTL  uint32 `json:"TTL"`
	Data string `json:"data"`
}

// Question is one question in JSON form.
type Question struct {
	Name string `json:"name"`
	Type uint16 `json:"type"`
}

// Response is the JSON document shape.
type Response struct {
	Status     int        `json:"Status"`
	TC         bool       `json:"TC"`
	RD         bool       `json:"RD"`
	RA         bool       `json:"RA"`
	AD         bool       `json:"AD"`
	CD         bool       `json:"CD"`
	Question   []Question `json:"Question"`
	Answer     []RR       `json:"Answer,omitempty"`
	Authority  []RR       `json:"Authority,omitempty"`
	Additional []RR       `json:"Additional,omitempty"`
}

// Encode renders a DNS response message as JSON.
func Encode(m *dnswire.Message) ([]byte, error) {
	doc := Response{
		Status: int(m.RCode),
		TC:     m.Truncated,
		RD:     m.RecursionDesired,
		RA:     m.RecursionAvailable,
		AD:     m.AuthenticData,
		CD:     m.CheckingDisabled,
	}
	for _, q := range m.Questions {
		doc.Question = append(doc.Question, Question{Name: string(q.Name), Type: uint16(q.Type)})
	}
	var err error
	if doc.Answer, err = encodeSection(m.Answers); err != nil {
		return nil, err
	}
	if doc.Authority, err = encodeSection(m.Authorities); err != nil {
		return nil, err
	}
	if doc.Additional, err = encodeSection(m.Additionals); err != nil {
		return nil, err
	}
	return json.Marshal(doc)
}

func encodeSection(rrs []dnswire.ResourceRecord) ([]RR, error) {
	out := make([]RR, 0, len(rrs))
	for _, rr := range rrs {
		if rr.Data == nil {
			return nil, fmt.Errorf("dnsjson: record %s has nil rdata", rr.Name)
		}
		out = append(out, RR{
			Name: string(rr.Name),
			Type: uint16(rr.Type()),
			TTL:  rr.TTL,
			Data: rr.Data.String(),
		})
	}
	return out, nil
}

// Decode parses a JSON document back into a message. The wire ID is not
// part of the JSON representation and is left zero.
func Decode(data []byte) (*dnswire.Message, error) {
	var doc Response
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("dnsjson: %w", err)
	}
	m := &dnswire.Message{
		Response:           true,
		RCode:              dnswire.RCode(doc.Status),
		Truncated:          doc.TC,
		RecursionDesired:   doc.RD,
		RecursionAvailable: doc.RA,
		AuthenticData:      doc.AD,
		CheckingDisabled:   doc.CD,
	}
	for _, q := range doc.Question {
		m.Questions = append(m.Questions, dnswire.Question{
			Name: dnswire.Name(q.Name).Canonical(), Type: dnswire.Type(q.Type), Class: dnswire.ClassINET,
		})
	}
	var err error
	if m.Answers, err = decodeSection(doc.Answer); err != nil {
		return nil, err
	}
	if m.Authorities, err = decodeSection(doc.Authority); err != nil {
		return nil, err
	}
	if m.Additionals, err = decodeSection(doc.Additional); err != nil {
		return nil, err
	}
	return m, nil
}

func decodeSection(rrs []RR) ([]dnswire.ResourceRecord, error) {
	var out []dnswire.ResourceRecord
	for _, rr := range rrs {
		data, err := parseRData(dnswire.Type(rr.Type), rr.Data)
		if err != nil {
			return nil, fmt.Errorf("dnsjson: %s record for %s: %w", dnswire.Type(rr.Type), rr.Name, err)
		}
		out = append(out, dnswire.ResourceRecord{
			Name:  dnswire.Name(rr.Name).Canonical(),
			Class: dnswire.ClassINET,
			TTL:   rr.TTL,
			Data:  data,
		})
	}
	return out, nil
}

func parseRData(t dnswire.Type, s string) (dnswire.RData, error) {
	switch t {
	case dnswire.TypeA:
		addr, err := netip.ParseAddr(s)
		if err != nil {
			return nil, err
		}
		return &dnswire.A{Addr: addr}, nil
	case dnswire.TypeAAAA:
		addr, err := netip.ParseAddr(s)
		if err != nil {
			return nil, err
		}
		return &dnswire.AAAA{Addr: addr}, nil
	case dnswire.TypeCNAME:
		return &dnswire.CNAME{Target: dnswire.Name(s).Canonical()}, nil
	case dnswire.TypeNS:
		return &dnswire.NS{Host: dnswire.Name(s).Canonical()}, nil
	case dnswire.TypePTR:
		return &dnswire.PTR{Target: dnswire.Name(s).Canonical()}, nil
	case dnswire.TypeMX:
		var pref uint16
		var host string
		if _, err := fmt.Sscanf(s, "%d %s", &pref, &host); err != nil {
			return nil, err
		}
		return &dnswire.MX{Preference: pref, Host: dnswire.Name(host).Canonical()}, nil
	case dnswire.TypeTXT:
		// TXT.String's form: quoted strings, Go escapes, one space apart.
		// Data in any other form is one string.
		txt := &dnswire.TXT{}
		for rest := s; ; rest = strings.TrimPrefix(rest, " ") {
			q, err := strconv.QuotedPrefix(rest)
			if err != nil {
				return &dnswire.TXT{Strings: []string{s}}, nil
			}
			p, _ := strconv.Unquote(q)
			if txt.Strings, rest = append(txt.Strings, p), rest[len(q):]; rest == "" {
				return txt, nil
			}
		}
	case dnswire.TypeCAA:
		var flags uint8
		rest := s
		if _, err := fmt.Sscanf(s, "%d", &flags); err != nil {
			return nil, err
		}
		if i := strings.IndexByte(s, ' '); i >= 0 {
			rest = s[i+1:]
		}
		tag, value, _ := strings.Cut(rest, " ")
		if v, err := strconv.Unquote(value); err == nil {
			value = v
		}
		return &dnswire.CAA{Flags: flags, Tag: tag, Value: value}, nil
	}
	// RFC 3597's generic form, as Unknown.String renders it: \# length hex.
	if f := strings.Fields(s); len(f) >= 2 && f[0] == `\#` {
		raw, err := hex.DecodeString(strings.Join(f[2:], ""))
		if n, nerr := strconv.Atoi(f[1]); err == nil && nerr == nil && n == len(raw) {
			return &dnswire.Unknown{RRType: t, Raw: raw}, nil
		}
	}
	return &dnswire.Unknown{RRType: t, Raw: []byte(s)}, nil
}

// ParseQuery interprets the GET query parameters of a JSON DoH request
// (?name=example.com&type=A or numeric type) into a query message.
func ParseQuery(values url.Values) (*dnswire.Message, error) {
	name := values.Get("name")
	if name == "" {
		return nil, fmt.Errorf("dnsjson: missing name parameter")
	}
	typeStr := values.Get("type")
	t := dnswire.TypeA
	if typeStr != "" {
		if parsed, ok := dnswire.ParseType(strings.ToUpper(typeStr)); ok {
			t = parsed
		} else if n, err := strconv.Atoi(typeStr); err == nil {
			t = dnswire.Type(n)
		} else {
			return nil, fmt.Errorf("dnsjson: bad type %q", typeStr)
		}
	}
	q := dnswire.NewQuery(0, dnswire.Name(name), t)
	if values.Get("cd") == "true" || values.Get("cd") == "1" {
		q.CheckingDisabled = true
	}
	if values.Get("do") == "true" || values.Get("do") == "1" {
		q.EDNS.DO = true
	}
	return q, nil
}
