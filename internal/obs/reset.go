package obs

// Resetter is anything whose measurement counters can be zeroed at a
// warmup boundary. The cost model, hosts, machines, servers, proxies and
// the Collector itself all implement it.
type Resetter interface{ ResetMeters() }

// ResetSet is the single reset seam for an experiment: register every
// meter-bearing component once, then Reset() at the warmup boundary.
// Before this seam, each experiment hand-listed reset calls and a
// forgotten one silently skewed a figure.
type ResetSet struct {
	rs []Resetter
}

// Add registers resetters (nils are skipped so optional components can
// be passed unconditionally).
func (s *ResetSet) Add(rs ...Resetter) {
	for _, r := range rs {
		if r != nil {
			s.rs = append(s.rs, r)
		}
	}
}

// Reset zeroes every registered component, in registration order.
func (s *ResetSet) Reset() {
	for _, r := range s.rs {
		r.ResetMeters()
	}
}
