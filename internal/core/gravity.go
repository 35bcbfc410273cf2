package core

import (
	"repro/internal/linalg"
	"repro/internal/topology"
)

// Gravity computes the simple gravity model estimate of eq. (5):
//
//	ŝ_nm = C·te(n)·tx(m),
//
// normalized so the estimated total equals the measured total network
// traffic. It uses only the access-link loads, never the interior links, so
// its estimate is generally not consistent with the interior measurements —
// which is why it serves as a prior for the regularized methods rather than
// as an estimator of its own.
func Gravity(in *Instance) linalg.Vector {
	return GeneralizedGravity(in, nil)
}

// GeneralizedGravity is the peering-aware variant (§4.1): traffic between
// two peering PoPs is forced to zero, everything else follows the gravity
// form, renormalized to the measured total. peers[n] marks PoP n as a
// peering point.
func GeneralizedGravity(in *Instance, peers map[int]bool) linalg.Vector {
	return GravityFromTotals(nil, in.Rt.Net, in.IngressTotals(), in.EgressTotals(), peers)
}

// GravityFromTotals computes the (generalized) gravity estimate of eq. (5)
// directly from per-PoP ingress totals te(n) and egress totals tx(m),
// without materializing an Instance. It is the kernel shared by Gravity /
// GeneralizedGravity, GravityWS and internal/stream's incremental
// estimator, which maintains te and tx as running sums over a sliding
// window of collected intervals — sharing the arithmetic is what lets the
// incremental estimate match a batch solve bit-for-bit (up to the running
// sums themselves). peers may be nil. The estimate is written into dst
// when it has exactly NumPairs elements; otherwise (nil dst included) a
// fresh vector is allocated. Reusing a buffer cannot perturb an estimate.
func GravityFromTotals(dst linalg.Vector, net *topology.Network, te, tx linalg.Vector, peers map[int]bool) linalg.Vector {
	n := net.NumPoPs()
	s := dst
	if len(s) != net.NumPairs() {
		s = linalg.NewVector(net.NumPairs())
	} else {
		s.Zero()
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			if peers != nil && peers[src] && peers[dst] {
				continue // transit between peers is forced to zero
			}
			s[net.PairIndex(src, dst)] = te[src] * tx[dst]
		}
	}
	// Normalize the estimated total to the measured total traffic.
	tot := te.Sum()
	est := s.Sum()
	if est > 0 {
		s.Scale(tot / est)
	}
	return s
}

// GravityFanouts returns the fanout interpretation of the simple gravity
// model: α_nm = tx(m) / Σ tx — identical for every source PoP.
func GravityFanouts(in *Instance) linalg.Vector {
	net := in.Rt.Net
	tx := in.EgressTotals()
	tot := tx.Sum()
	a := linalg.NewVector(net.NumPairs())
	if tot <= 0 {
		return a
	}
	for src := 0; src < net.NumPoPs(); src++ {
		var rowTot float64
		for dst := 0; dst < net.NumPoPs(); dst++ {
			if dst != src {
				rowTot += tx[dst]
			}
		}
		for dst := 0; dst < net.NumPoPs(); dst++ {
			if dst != src && rowTot > 0 {
				a[net.PairIndex(src, dst)] = tx[dst] / rowTot
			}
		}
	}
	return a
}
