package apps

import (
	"bytes"
	"testing"
	"time"

	"iolite/internal/httpd"
	"iolite/internal/kernel"
	"iolite/internal/netsim"
	"iolite/internal/sim"
)

// proxyBed wires clients → proxy machine → origin machine.
type proxyBed struct {
	eng    *sim.Engine
	origin *kernel.Machine
	proxy  *kernel.Machine
	px     *Proxy
	client *netsim.Host
	link   *netsim.Link
	lst    *netsim.Listener // proxy's client-facing listener
}

func newProxyBed(mode ProxyMode, originKind httpd.Kind) *proxyBed {
	eng := sim.New()
	costs := sim.DefaultCosts()
	b := &proxyBed{eng: eng}

	var ocfg kernel.Config
	if originKind.Lite() {
		ocfg = kernel.Config{ChecksumCache: true}
	}
	b.origin = kernel.NewMachine(eng, costs, ocfg)
	originLst := netsim.NewListener(b.origin.Host)
	httpd.NewServer(httpd.Config{Kind: originKind, Machine: b.origin, Listener: originLst})

	b.proxy = kernel.NewMachine(eng, costs, kernel.Config{ChecksumCache: mode.RefMode()})
	b.lst = netsim.NewListener(b.proxy.Host)
	originLink := netsim.NewLink(eng, b.proxy.Host, b.origin.Host, 100_000_000, 100*time.Microsecond)
	b.px = NewProxy(ProxyConfig{
		Mode:       mode,
		Machine:    b.proxy,
		Listener:   b.lst,
		Origin:     originLst,
		OriginLink: originLink,
		OriginRef:  originKind.Lite(),
	})

	b.client = netsim.NewHost(eng, costs, "client", false, nil, nil)
	b.link = netsim.NewLink(eng, b.client, b.proxy.Host, 100_000_000, 100*time.Microsecond)
	return b
}

// fetch requests each path once through the proxy and returns the bodies.
func (b *proxyBed) fetch(t *testing.T, paths []string) map[string][]byte {
	t.Helper()
	got := make(map[string][]byte)
	b.eng.Go("client", func(p *sim.Proc) {
		cfg := httpd.ClientConfig{
			Host:      b.client,
			Link:      b.link,
			Listener:  b.lst,
			RefServer: b.px.cfg.Mode.RefMode(),
			OnResponse: func(path string, body []byte) {
				got[path] = append([]byte(nil), body...)
			},
		}
		i := 0
		var st httpd.ClientStats
		httpd.RunClient(p, cfg, func() (string, bool) {
			if i >= len(paths) {
				return "", false
			}
			i++
			return paths[i-1], true
		}, &st)
		if st.Errors != 0 {
			t.Errorf("client errors: %d", st.Errors)
		}
	})
	b.eng.Run()
	return got
}

func TestProxyServesCorrectBytesAllModes(t *testing.T) {
	for _, tc := range []struct {
		mode   ProxyMode
		origin httpd.Kind
	}{
		{ProxyCopy, httpd.Flash},
		{ProxyCopy, httpd.FlashLite},
		{ProxyZeroCopy, httpd.FlashLite},
		{ProxySplice, httpd.FlashLite},
		{ProxySplice, httpd.FlashLiteSplice},
	} {
		t.Run(tc.mode.String()+"/"+tc.origin.String(), func(t *testing.T) {
			b := newProxyBed(tc.mode, tc.origin)
			f1 := b.origin.FS.Create("/a", 37123)
			f2 := b.origin.FS.Create("/b", 5000)
			want1 := b.origin.FS.Expected(f1, 0, f1.Size())
			want2 := b.origin.FS.Expected(f2, 0, f2.Size())

			// First pass misses, second pass hits; bytes must match both
			// times.
			got := b.fetch(t, []string{"/a", "/b", "/a", "/b"})
			if !bytes.Equal(got["/a"], want1) || !bytes.Equal(got["/b"], want2) {
				t.Fatal("proxy served wrong bytes")
			}
			reqs, hits, misses, out, aborted := b.px.Stats()
			if reqs != 4 || hits != 2 || misses != 2 {
				t.Fatalf("stats: reqs=%d hits=%d misses=%d", reqs, hits, misses)
			}
			if aborted != 0 {
				t.Fatalf("aborted=%d", aborted)
			}
			if out <= f1.Size()*2 {
				t.Fatalf("bytesOut=%d too small", out)
			}
			if hr := b.px.HitRate(); hr != 0.5 {
				t.Fatalf("hit rate %.2f, want 0.50", hr)
			}
		})
	}
}

// TestProxyHitAvoidsOriginAndCopies: after the cold fetch, hits must not
// touch the origin, the zero-copy modes must charge no copy work, and the
// splice mode's re-serves must ride the checksum cache.
func TestProxyHitAvoidsOriginAndCopies(t *testing.T) {
	b := newProxyBed(ProxySplice, httpd.FlashLite)
	f := b.origin.FS.Create("/a", 64<<10)
	want := b.origin.FS.Expected(f, 0, f.Size())
	costs := b.proxy.Costs

	b.fetch(t, []string{"/a"}) // cold: origin fetch + first client serve
	_, _, originBytesOut0, _ := b.origin.Host.Stats()

	costs.ResetMeters()
	b.proxy.CkCache.ResetMeters()
	got := b.fetch(t, []string{"/a", "/a"}) // warm: pure cache hits
	if !bytes.Equal(got["/a"], want) {
		t.Fatal("hit served wrong bytes")
	}
	_, _, originBytesOut1, _ := b.origin.Host.Stats()
	if originBytesOut1 != originBytesOut0 {
		t.Errorf("cache hit contacted the origin (%d new bytes)", originBytesOut1-originBytesOut0)
	}
	if copied := costs.MeterCopiedBytes(); copied != 0 {
		t.Errorf("splice hit path charged %d copied bytes, want 0", copied)
	}
	_, _, hitB, missB := b.proxy.CkCache.Stats()
	// The first warm serve may still miss (the cold serve warmed the cache);
	// by the second everything is cached, so hits must dominate overall.
	if hitB < int64(f.Size()) {
		t.Errorf("checksum-cache hit bytes = %d (miss %d), want ≥ %d", hitB, missB, f.Size())
	}
}
