package dohcost

import (
	"context"
	"strings"
	"testing"
)

func TestFacadeResolvers(t *testing.T) {
	env, err := NewEnvironment(EnvironmentConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()

	var costs []Cost
	rec := CostFunc(func(c Cost) { costs = append(costs, c) })

	udp, err := env.UDP(Local, Options{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	dot, err := env.DoT(Cloudflare, Options{Persistent: true})
	if err != nil {
		t.Fatal(err)
	}
	defer dot.Close()
	dohH2, err := env.DoH(Google, Options{Persistent: true})
	if err != nil {
		t.Fatal(err)
	}
	defer dohH2.Close()
	dohH1, err := env.DoH(Cloudflare, Options{Persistent: true, HTTP1: true})
	if err != nil {
		t.Fatal(err)
	}
	defer dohH1.Close()

	for name, r := range map[string]Resolver{"udp": udp, "dot": dot, "doh2": dohH2, "doh1": dohH1} {
		resp, err := r.Exchange(context.Background(), NewQuery("www.example.com", TypeA))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(resp.Answers) != 1 {
			t.Errorf("%s: answers = %v", name, resp.Answers)
		}
	}
	if len(costs) != 1 {
		t.Errorf("recorded %d costs for the UDP resolver, want 1", len(costs))
	}
	if costs[0].WireCost().Packets != 2 {
		t.Errorf("udp packets = %d", costs[0].WireCost().Packets)
	}
}

func TestFacadeNewQueryCanonicalizes(t *testing.T) {
	q := NewQuery("Example.COM", TypeAAAA)
	if q.Question1().Name != "example.com." {
		t.Errorf("name = %v", q.Question1().Name)
	}
	if q.EDNS == nil {
		t.Error("query missing EDNS")
	}
}

func TestFacadeStartProxy(t *testing.T) {
	env, err := NewEnvironment(EnvironmentConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()

	p, err := env.StartProxy("proxy.dns", Cloudflare, Google)
	if err != nil {
		t.Fatal(err)
	}
	if env.ProxyChain("proxy.dns") == nil {
		t.Fatal("proxy chain not recorded")
	}

	// Query the proxy over DoH, trusting its own chain.
	c, err := env.ProxyDoH("proxy.dns", Options{Persistent: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		resp, err := c.Exchange(context.Background(), NewQuery("facade.example.com", TypeA))
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Answers) != 1 {
			t.Fatalf("answers = %v", resp.Answers)
		}
	}
	s := p.CacheStats()
	if s.Misses != 1 || s.Hits != 2 {
		t.Errorf("cache stats = %+v, want 1 miss + 2 hits", s)
	}
	ups := p.UpstreamStats()
	if len(ups) != 2 || ups[0].Exchanges != 1 {
		t.Errorf("upstream stats = %+v", ups)
	}
}

func TestFacadeFigure1(t *testing.T) {
	r := RunFigure1(1000, 4)
	if r.CDF.Len() != 1000 {
		t.Errorf("samples = %d", r.CDF.Len())
	}
	if RenderFigure1(r) == "" {
		t.Error("empty render")
	}
}

func TestFacadeRunScenario(t *testing.T) {
	res, err := RunScenario(LoadScenario{
		Transports: []string{"udp", "doh"},
		Clients:    2,
		Queries:    16,
		Names:      4,
		Seed:       11,
		Proxy:      ForwardingProxyConfig{Policy: SteerFastest, CacheBudget: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerTransport) != 2 {
		t.Fatalf("per-transport results = %d", len(res.PerTransport))
	}
	for _, tr := range res.PerTransport {
		if tr.Queries != 16 || tr.Failures != 0 {
			t.Errorf("%s: %+v", tr.Transport, tr)
		}
	}
	if res.Cost.Steering.Policy != "fastest" || res.Scenario.Proxy.CacheBudget != 1<<20 {
		t.Errorf("LoadScenario.Proxy did not reach the proxy: policy %q, budget %d", res.Cost.Steering.Policy, res.Scenario.Proxy.CacheBudget)
	}
	if out := RenderScenario(res); !strings.Contains(out, "udp") || !strings.Contains(out, "doh") {
		t.Errorf("render:\n%s", out)
	}
}
