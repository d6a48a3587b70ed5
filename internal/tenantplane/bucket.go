// Package tenantplane is the multi-tenant control plane: it multiplexes many
// independent detection trees — one per registered predicate — over one
// shared process fleet and one shared transport, and spreads tenant
// ownership across an active/active monitor fleet with bucket leases.
//
// The paper detects a single strong conjunctive predicate per spanning tree;
// a detection *service* runs thousands. Three pieces make that a plane
// instead of a pile of clusters:
//
//   - Multiplexer (plane.go): RegisterPredicate(tenantID, spec) instantiates
//     one livenet.Cluster per tenant over a shared transport. Each tenant's
//     frames are tagged with its wire id (reports inline, everything else in
//     a tenant envelope — internal/wire) and demultiplexed by a Mux
//     (mux.go), so one TCP connection carries every tenant's traffic with
//     per-tenant delta chaining intact.
//
//   - Bucket ownership (this file): tenant ids hash onto a fixed ring of
//     BucketCount buckets. Ownership is per bucket, not per tenant, so the
//     assignment state stays O(256) no matter how many tenants register —
//     the shape of the ARO-RP monitoring pattern the ROADMAP points at.
//
//   - Leases (lease.go, monitor.go): every fleet monitor maintains a TTL'd
//     liveness record and competes for bucket leases; a bucket's lease is
//     valid exactly while its holder's liveness record is. Monitors
//     rebalance toward an even share and pick up expired buckets, so any
//     monitor can own any tenant's root and a dead monitor's tenants are
//     re-owned within one TTL.
package tenantplane

import "hash/fnv"

// BucketCount is the fixed size of the ownership ring. 256 buckets keep the
// lease table O(1)-small while spreading tenants finely enough that a fleet
// of tens of monitors balances within a bucket or two.
const BucketCount = 256

// BucketOf maps a tenant id onto its ownership bucket.
func BucketOf(tenantID string) int {
	h := fnv.New32a()
	h.Write([]byte(tenantID))
	return int(h.Sum32() % BucketCount)
}

// WireID derives the wire-level tenant tag for a tenant id: the FNV-32a
// hash, remapped off zero because the zero tag is reserved for untagged
// single-tenant traffic. Collisions across registered tenants are refused at
// registration (see Multiplexer.RegisterPredicate).
func WireID(tenantID string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(tenantID))
	if v := h.Sum32(); v != 0 {
		return v
	}
	return 0x9e3779b9 // any fixed nonzero value; zero means "untagged"
}
