package hpack

// HeaderField is one (name, value) pair. Sensitive fields are encoded as
// never-indexed literals so intermediaries must not remember them.
type HeaderField struct {
	Name      string
	Value     string
	Sensitive bool
}

// size is the RFC 7541 §4.1 entry size: octets plus 32 bytes of overhead.
func (f HeaderField) size() int { return len(f.Name) + len(f.Value) + 32 }

// staticTable is RFC 7541 Appendix A. Index 1 is staticTable[0].
var staticTable = [61]HeaderField{
	{Name: ":authority"},
	{Name: ":method", Value: "GET"},
	{Name: ":method", Value: "POST"},
	{Name: ":path", Value: "/"},
	{Name: ":path", Value: "/index.html"},
	{Name: ":scheme", Value: "http"},
	{Name: ":scheme", Value: "https"},
	{Name: ":status", Value: "200"},
	{Name: ":status", Value: "204"},
	{Name: ":status", Value: "206"},
	{Name: ":status", Value: "304"},
	{Name: ":status", Value: "400"},
	{Name: ":status", Value: "404"},
	{Name: ":status", Value: "500"},
	{Name: "accept-charset"},
	{Name: "accept-encoding", Value: "gzip, deflate"},
	{Name: "accept-language"},
	{Name: "accept-ranges"},
	{Name: "accept"},
	{Name: "access-control-allow-origin"},
	{Name: "age"},
	{Name: "allow"},
	{Name: "authorization"},
	{Name: "cache-control"},
	{Name: "content-disposition"},
	{Name: "content-encoding"},
	{Name: "content-language"},
	{Name: "content-length"},
	{Name: "content-location"},
	{Name: "content-range"},
	{Name: "content-type"},
	{Name: "cookie"},
	{Name: "date"},
	{Name: "etag"},
	{Name: "expect"},
	{Name: "expires"},
	{Name: "from"},
	{Name: "host"},
	{Name: "if-match"},
	{Name: "if-modified-since"},
	{Name: "if-none-match"},
	{Name: "if-range"},
	{Name: "if-unmodified-since"},
	{Name: "last-modified"},
	{Name: "link"},
	{Name: "location"},
	{Name: "max-forwards"},
	{Name: "proxy-authenticate"},
	{Name: "proxy-authorization"},
	{Name: "range"},
	{Name: "referer"},
	{Name: "refresh"},
	{Name: "retry-after"},
	{Name: "server"},
	{Name: "set-cookie"},
	{Name: "strict-transport-security"},
	{Name: "transfer-encoding"},
	{Name: "user-agent"},
	{Name: "vary"},
	{Name: "via"},
	{Name: "www-authenticate"},
}

// staticIndex maps exact (name, value) pairs and bare names to static
// indices for the encoder's lookups. Built once at init.
var (
	staticPairIndex = map[HeaderField]int{}
	staticNameIndex = map[string]int{}
)

func init() {
	for i, f := range staticTable {
		staticPairIndex[HeaderField{Name: f.Name, Value: f.Value}] = i + 1
		if _, ok := staticNameIndex[f.Name]; !ok {
			staticNameIndex[f.Name] = i + 1
		}
	}
}

// dynamicTable is the shared FIFO of recently encoded/decoded fields
// (RFC 7541 §2.3.2), kept in a ring: an insert writes one slot and an
// eviction clears one, so a warm table — a connection whose every request
// indexes a new :path — neither allocates nor copies. Entry 0 in HPACK's
// numbering is the newest, the slot before tail.
type dynamicTable struct {
	ring    []HeaderField // live entries ring[head], …, oldest first, wrapping
	head, n int
	size    int
	maxSize int
}

// entry returns the di-th newest entry, 0 ≤ di < n.
func (t *dynamicTable) entry(di int) HeaderField {
	return t.ring[(t.head+t.n-1-di)%len(t.ring)]
}

func (t *dynamicTable) add(f HeaderField) {
	f.Sensitive = false
	if t.n == len(t.ring) {
		// Full: double the ring, oldest first from slot 0. A table bounded
		// by maxSize stops growing once it holds the most entries that fit.
		ring := make([]HeaderField, max(8, 2*len(t.ring)))
		for i := 0; i < t.n; i++ {
			ring[i] = t.ring[(t.head+i)%len(t.ring)]
		}
		t.ring, t.head = ring, 0
	}
	t.ring[(t.head+t.n)%len(t.ring)] = f
	t.n++
	t.size += f.size()
	t.evict()
}

func (t *dynamicTable) setMaxSize(n int) {
	t.maxSize = n
	t.evict()
}

func (t *dynamicTable) evict() {
	for t.size > t.maxSize && t.n > 0 {
		t.size -= t.ring[t.head].size()
		t.ring[t.head] = HeaderField{} // the strings go with the entry
		t.head = (t.head + 1) % len(t.ring)
		t.n--
	}
	if t.n == 0 {
		t.size = 0
	}
}

// at returns the field at absolute HPACK index i (1-based across static then
// dynamic).
func (t *dynamicTable) at(i int) (HeaderField, bool) {
	if i <= 0 {
		return HeaderField{}, false
	}
	if i <= len(staticTable) {
		return staticTable[i-1], true
	}
	di := i - len(staticTable) - 1
	if di >= t.n {
		return HeaderField{}, false
	}
	return t.entry(di), true
}

// lookup finds the best index for f: a full match (indexed representation)
// or a name-only match, the newest dynamic entry first. Returns (index,
// nameOnly) with index 0 for no match.
func (t *dynamicTable) lookup(f HeaderField) (idx int, full bool) {
	if i, ok := staticPairIndex[HeaderField{Name: f.Name, Value: f.Value}]; ok {
		return i, true
	}
	for di := 0; di < t.n; di++ {
		if e := t.entry(di); e.Name == f.Name && e.Value == f.Value {
			return len(staticTable) + 1 + di, true
		}
	}
	if i, ok := staticNameIndex[f.Name]; ok {
		return i, false
	}
	for di := 0; di < t.n; di++ {
		if t.entry(di).Name == f.Name {
			return len(staticTable) + 1 + di, false
		}
	}
	return 0, false
}
