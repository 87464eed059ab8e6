package dnsserver

import (
	"context"
	"sync"

	"dohcost/internal/dnswire"
)

// Zone is a small in-memory authoritative zone: exact-name matching with
// CNAME chasing, NXDOMAIN for unknown names, and NODATA (empty NOERROR) for
// known names without records of the asked type. It backs the example
// applications and the landscape survey's CAA lookups.
type Zone struct {
	Origin dnswire.Name

	mu      sync.RWMutex
	records map[dnswire.Name]map[dnswire.Type][]dnswire.ResourceRecord
}

// NewZone creates an empty zone rooted at origin.
func NewZone(origin dnswire.Name) *Zone {
	return &Zone{
		Origin:  origin.Canonical(),
		records: make(map[dnswire.Name]map[dnswire.Type][]dnswire.ResourceRecord),
	}
}

// Add inserts a record. The record name must fall inside the zone.
func (z *Zone) Add(rr dnswire.ResourceRecord) {
	name := rr.Name.Canonical()
	rr.Name = name
	z.mu.Lock()
	defer z.mu.Unlock()
	byType, ok := z.records[name]
	if !ok {
		byType = make(map[dnswire.Type][]dnswire.ResourceRecord)
		z.records[name] = byType
	}
	byType[rr.Type()] = append(byType[rr.Type()], rr)
}

// ServeDNS implements Handler.
func (z *Zone) ServeDNS(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	r := q.Reply()
	r.Authoritative = true
	qq := q.Question1()
	name := qq.Name.Canonical()
	if !name.IsSubdomainOf(z.Origin) {
		r.RCode = dnswire.RCodeRefused
		return r, nil
	}

	z.mu.RLock()
	defer z.mu.RUnlock()
	// Chase CNAMEs up to a sane depth.
	for depth := 0; depth < 8; depth++ {
		byType, known := z.records[name]
		if !known {
			r.RCode = dnswire.RCodeNameError
			return r, nil
		}
		if rrs, ok := byType[qq.Type]; ok && qq.Type != dnswire.TypeCNAME {
			r.Answers = append(r.Answers, rrs...)
			return r, nil
		}
		if qq.Type == dnswire.TypeCNAME {
			if rrs, ok := byType[dnswire.TypeCNAME]; ok {
				r.Answers = append(r.Answers, rrs...)
			}
			return r, nil
		}
		if cnames, ok := byType[dnswire.TypeCNAME]; ok && len(cnames) > 0 {
			r.Answers = append(r.Answers, cnames[0])
			name = cnames[0].Data.(*dnswire.CNAME).Target.Canonical()
			if !name.IsSubdomainOf(z.Origin) {
				return r, nil // target outside the zone: return the alias only
			}
			continue
		}
		// Known name, no data of this type.
		return r, nil
	}
	r.RCode = dnswire.RCodeServerFailure
	return r, nil
}
