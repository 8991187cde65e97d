package obs

// Per-tenant meters — the 0-OS pkg/metrics collector shape: one lazily
// allocated stats record per tenant, cheap enough to keep for thousands
// of tenants, reset together with the other meters at the warmup
// boundary.

// TenantStats counts one tenant's fate at the QoS admission points.
type TenantStats struct {
	// Requests admitted (they may still fail later for other reasons).
	Requests int64
	// Sheds refused by a depth bound (the tenant held its full share of
	// worker slots).
	Sheds int64
	// Throttles refused by a rate limiter (the tenant outran its
	// request-rate allowance).
	Throttles int64
}

// Tenants is the per-tenant meter table.
type Tenants struct {
	m map[string]*TenantStats
}

// NewTenants makes an empty meter table.
func NewTenants() *Tenants {
	return &Tenants{m: make(map[string]*TenantStats)}
}

// Get returns tenant's stats record, allocating it on first use. Safe on
// a nil table (returns a throwaway record).
func (t *Tenants) Get(tenant string) *TenantStats {
	if t == nil {
		return &TenantStats{}
	}
	s, ok := t.m[tenant]
	if !ok {
		s = &TenantStats{}
		t.m[tenant] = s
	}
	return s
}

// ResetMeters zeroes every tenant's counters (the Resetter seam), keeping
// the records so pointers handed out stay live across a warmup reset.
func (t *Tenants) ResetMeters() {
	if t == nil {
		return
	}
	for _, s := range t.m {
		*s = TenantStats{}
	}
}
