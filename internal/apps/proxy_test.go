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
	return newProxyBedCapped(mode, originKind, 0)
}

func newProxyBedCapped(mode ProxyMode, originKind httpd.Kind, cacheBytes int64) *proxyBed {
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
		CacheBytes: cacheBytes,
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

// TestProxyCacheEviction bounds the cache and checks that LRU eviction
// reclaims entries (splice fds included), evicted paths are re-fetched,
// and the bytes stay correct throughout.
func TestProxyCacheEviction(t *testing.T) {
	for _, mode := range []ProxyMode{ProxyCopy, ProxyZeroCopy, ProxySplice} {
		t.Run(mode.String(), func(t *testing.T) {
			b := newProxyBedCapped(mode, httpd.FlashLite, 70<<10) // fits ~2 of 3 docs
			const docSize = 30 << 10
			var want [3][]byte
			paths := []string{"/a", "/b", "/c"}
			for i, path := range paths {
				f := b.origin.FS.Create(path, docSize)
				want[i] = b.origin.FS.Expected(f, 0, f.Size())
			}
			// Two LRU-hostile passes: every request past the first few evicts.
			seq := []string{"/a", "/b", "/c", "/a", "/b", "/c", "/a"}
			got := b.fetch(t, seq)
			for i, path := range paths {
				if !bytes.Equal(got[path], want[i]) {
					t.Fatalf("%s served wrong bytes under eviction", path)
				}
			}
			reqs, hits, misses, _, aborted := b.px.Stats()
			if reqs != int64(len(seq)) || aborted != 0 {
				t.Fatalf("reqs=%d aborted=%d", reqs, aborted)
			}
			if hits+misses != reqs {
				t.Fatalf("hits(%d)+misses(%d) != requests(%d)", hits, misses, reqs)
			}
			if misses <= 3 {
				t.Fatalf("misses=%d; the bounded cache should have evicted and re-fetched", misses)
			}
			if b.px.cacheBytes > 70<<10 {
				t.Fatalf("cacheBytes=%d over the %d cap", b.px.cacheBytes, 70<<10)
			}
			// Evicted splice entries must close their object fds: the table
			// holds at most the listener plus one fd per resident entry.
			if mode == ProxySplice {
				if n := b.px.proc.NumFDs(); n > 1+len(b.px.cache) {
					t.Fatalf("proxy leaked descriptors: %d open, %d cache entries", n, len(b.px.cache))
				}
			}
		})
	}
}
