package serve

// tenantQueue is one tenant's FIFO of pending decode flights plus its DRR
// state.
type tenantQueue struct {
	name    string
	q       []*flight
	deficit int64 // DRR byte credit carried between rounds
	granted bool  // quantum already granted at the current cursor visit
	active  bool  // in the scheduler's ring
}

// scheduler is a deficit-round-robin fair-share queue of decode flights:
// each cursor visit grants a tenant at most one quantum of byte credit
// (lazily — only when its head does not already fit), and a tenant keeps
// serving while its accumulated deficit covers its head. Deficits persist
// across rounds, so a request larger than the quantum accumulates credit over
// several visits instead of starving, and a drained tenant forfeits its
// credit — an idle tenant cannot bank bandwidth. All methods require
// external locking.
type scheduler struct {
	quantum int64
	tenants map[string]*tenantQueue
	ring    []*tenantQueue // active tenants, first-submit order
	cursor  int
	pending int
}

func newScheduler(quantum int64) *scheduler {
	return &scheduler{quantum: quantum, tenants: map[string]*tenantQueue{}}
}

// submit queues a flight under its tenant.
func (s *scheduler) submit(fl *flight) {
	t := s.tenants[fl.tenant]
	if t == nil {
		t = &tenantQueue{name: fl.tenant}
		s.tenants[fl.tenant] = t
	}
	t.q = append(t.q, fl)
	s.pending++
	if !t.active {
		t.active = true
		t.deficit = 0
		t.granted = false
		s.ring = append(s.ring, t)
	}
}

// next pops the next flight, nil only when nothing is queued. The scan
// loops, granting one quantum per visit, until a head's deficit covers it:
// every visit adds credit toward some head, so a queued flight always
// dispatches.
func (s *scheduler) next() *flight {
	if s.pending == 0 {
		return nil
	}
	for {
		t := s.ring[s.cursor]
		head := t.q[0]
		if !t.granted && t.deficit < head.cost {
			// Lazy per-visit grant: credit only accrues toward a head that
			// needs it.
			t.deficit += s.quantum
			t.granted = true
		}
		if t.deficit >= head.cost {
			t.deficit -= head.cost
			t.q = t.q[1:]
			s.pending--
			if len(t.q) == 0 {
				// A drained tenant forfeits its remaining credit.
				t.deficit, t.granted, t.active = 0, false, false
				s.ring = append(s.ring[:s.cursor], s.ring[s.cursor+1:]...)
				if len(s.ring) > 0 {
					s.cursor %= len(s.ring)
					s.ring[s.cursor].granted = false
				} else {
					s.cursor = 0
				}
			}
			// The cursor stays on the served tenant: it keeps serving on
			// later calls while its deficit lasts (classic DRR batching).
			return head
		}
		s.cursor = (s.cursor + 1) % len(s.ring)
		s.ring[s.cursor].granted = false
	}
}

// drain empties every queue, returning the abandoned flights (fabric
// shutdown fails them).
func (s *scheduler) drain() []*flight {
	var out []*flight
	for _, t := range s.ring {
		out = append(out, t.q...)
		t.q, t.deficit, t.granted, t.active = nil, 0, false, false
	}
	s.ring, s.cursor, s.pending = nil, 0, 0
	return out
}
