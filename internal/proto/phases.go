package proto

// Phases keeps a machine's round-gated state for the protocol phases that
// have seen traffic, one S each, made on first use. An adaptive protocol
// runs about f+1 of its P phases, so this costs O(phases that ran) where a
// dense [P+1]S would cost O(P) per machine — and P is n for BB's vetting.
// Lookups search newest-first: traffic is almost always for the latest
// phase. The caller accepts only phases 1..P before Make, which bounds the
// list at P entries.
type Phases[S any] struct {
	ran []phaseEntry[S]
}

type phaseEntry[S any] struct {
	phase int
	state S
}

// Get returns phase j's state, nil if the phase has none.
func (p *Phases[S]) Get(j int) *S {
	for i := len(p.ran) - 1; i >= 0; i-- {
		if p.ran[i].phase == j {
			return &p.ran[i].state
		}
	}
	return nil
}

// Make returns phase j's state, making a zero one on first use. The
// pointer is good until the next Make.
func (p *Phases[S]) Make(j int) *S {
	if s := p.Get(j); s != nil {
		return s
	}
	p.ran = append(p.ran, phaseEntry[S]{phase: j})
	return &p.ran[len(p.ran)-1].state
}

// At returns the i-th phase with state, 0 <= i < Len, and that state.
func (p *Phases[S]) At(i int) (int, *S) {
	return p.ran[i].phase, &p.ran[i].state
}

// Len returns the number of phases that have state.
func (p *Phases[S]) Len() int { return len(p.ran) }
