package core

import (
	"fmt"
	"strings"

	"sortlast/internal/partition"
)

// Caps are a compositing method's capability flags.
type Caps struct {
	// Paper marks one of the four methods of the paper's evaluation,
	// which are also the four on the binary-swap schedule.
	Paper bool
}

// Spec is one registered compositing method: a name, its capability
// flags, and the schedule x codec pair that implements it.
type Spec struct {
	Name  string
	Caps  Caps
	build builder
}

// builder returns a method configured with the interleave granularity
// over the rank geometry of plan; each method reads the knobs it has.
type builder func(granularity int, plan *partition.FoldPlan) Compositor

// registry lists the methods in the order the paper discusses them: the
// four evaluated methods, the related-work direct send (§2), then the
// owner-routed pair over encoded regions.
var registry = []Spec{
	{Name: "bs", Caps: Caps{Paper: true},
		build: swap("BS", raw{})},
	{Name: "bsbr", Caps: Caps{Paper: true},
		build: swap("BSBR", rectRaw{})},
	{Name: "bslc", Caps: Caps{Paper: true},
		build: swap("BSLC", intervalRLE{})},
	{Name: "bsbrc", Caps: Caps{Paper: true},
		build: swap("BSBRC", rectRLE{})},
	{Name: "direct",
		build: owners("DirectSend", tagDirect, rectRaw{}, 0)},
	{Name: "ds",
		build: owners("DS", tagDS, rectRLE{}, 0)},
	{Name: "dfb",
		build: owners("DFB", tagDFB, rectRLE{batched: true}, DefaultTile)},
}

// folds reports whether plan adds extra ranks to its power-of-two core.
func folds(plan *partition.FoldPlan) bool { return plan != nil && plan.Extras() > 0 }

// swap is a registry line for the binary-swap schedule, wrapped in the
// Folded pre-stage when the plan has extra ranks. The interval codec
// brings the interleaved split with it.
func swap(name string, codec regionCodec) builder {
	_, interleave := codec.(intervalRLE)
	return func(granularity int, plan *partition.FoldPlan) Compositor {
		var c Compositor = &swapLoop{name: name, codec: codec, interleave: interleave, granularity: granularity}
		if folds(plan) {
			c = &Folded{Plan: plan, Inner: c}
		}
		return c
	}
}

// owners is a registry line for the owner-merge schedule, over square
// tiles of edge tile or, with tile 0, P strips. A plan with extra ranks
// is pure rank geometry to it: per-rank boxes and a global depth order,
// no fold messages.
func owners(name string, tag int, codec regionCodec, tile int) builder {
	return func(_ int, plan *partition.FoldPlan) Compositor {
		m := &ownerMerge{name: name, tag: tag, codec: codec, tile: tile}
		if folds(plan) {
			m.lay = plan
		}
		return m
	}
}

// lookup returns the named method's spec.
func lookup(name string) (Spec, bool) {
	for _, s := range registry {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Build returns the named method configured and ready to run.
// granularity is the interleave section size of the load-balanced
// methods in pixels (0: one scanline); methods without the knob ignore
// it. A nil plan, or one with no folds, builds the method for a
// power-of-two world described by the decomposition passed to
// Composite. A fold plan with extras adapts it to the plan's rank count,
// and Composite must then be given plan.Dec.
func Build(name string, granularity int, plan *partition.FoldPlan) (Compositor, error) {
	s, ok := lookup(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown compositor %q (have %s)", name, strings.Join(Names(), ", "))
	}
	return s.build(granularity, plan), nil
}

// New returns the named compositor with default settings; Names lists
// the recognized names.
func New(name string) (Compositor, error) { return Build(name, 0, nil) }

// Names lists the compositors in registration order.
func Names() []string {
	out := make([]string, len(registry))
	for i, s := range registry {
		out[i] = s.Name
	}
	return out
}

// PaperMethods lists the four methods of the paper's evaluation.
func PaperMethods() []string {
	var out []string
	for _, s := range registry {
		if s.Caps.Paper {
			out = append(out, s.Name)
		}
	}
	return out
}
