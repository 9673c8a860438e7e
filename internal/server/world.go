package server

import (
	"sortlast/internal/faultinject"
	"sortlast/internal/mp"
)

// procResident is the standing rank pool the server owns for the
// lifetime of one world incarnation: an in-process mp world with one
// Comm endpoint per rank, each used by exactly one composite-stage
// goroutine. The supervisor builds a fresh one after a failure. (Ranks
// on sockets are cmd/clusternode's job; a served world is in-process.)
type procResident struct {
	w   *mp.World
	cs  []mp.Comm
	inj *faultinject.Injector
}

// newProcResident builds a p-rank pool. A non-nil injector wraps every
// rank's transport with fault injection; each call starts a fresh
// injector incarnation, so faults armed against a previous world do not
// carry over to its replacement.
func newProcResident(p int, inj *faultinject.Injector) (*procResident, error) {
	w, err := mp.NewWorld(p, mp.Options{})
	if err != nil {
		return nil, err
	}
	trs := make([]mp.Transport, p)
	for r := range trs {
		trs[r] = w.Transport(r)
	}
	if inj != nil {
		trs = inj.WrapWorld(trs)
	}
	cs := make([]mp.Comm, p)
	for r := range cs {
		if cs[r], err = mp.FromTransport(r, p, trs[r], mp.Options{}); err != nil {
			return nil, err
		}
	}
	return &procResident{w: w, cs: cs, inj: inj}, nil
}

// stop fails all blocked receives immediately and releases any injected
// stalls, so teardown never sleeps them out. Idempotent: an idle world's
// teardown and a cancelled pipeline's are the same call.
func (p *procResident) stop() {
	p.w.Shutdown()
	if p.inj != nil {
		p.inj.EndWorld()
	}
}
