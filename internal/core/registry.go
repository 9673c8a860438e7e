package core

import (
	"fmt"
	"strings"

	"sortlast/internal/partition"
)

// Caps are a compositing method's capability flags.
type Caps struct {
	// Paper marks one of the four methods of the paper's evaluation.
	Paper bool
	// Foldable marks a power-of-two binary-swap method that extends to
	// any rank count through the core.Folded pre-stage; the owner-routed
	// methods run at any rank count as they are.
	Foldable bool
}

// Spec is one registered compositing method: a name, its capability
// flags, and the schedule x codec pair that implements it.
type Spec struct {
	Name  string
	Caps  Caps
	build builder
}

// builder returns a method configured with the interleave granularity,
// the tile edge and the rank geometry; each method reads the knobs it
// has.
type builder func(granularity, tile int, lay partition.Layout) Compositor

// registry lists the methods in the order the paper discusses them: the
// four evaluated methods, the related-work direct send and direct pixel
// forwarding (§2), then the owner-routed pair over encoded regions.
var registry = []Spec{
	{Name: "bs", Caps: Caps{Paper: true, Foldable: true},
		build: swap("BS", raw{})},
	{Name: "bsbr", Caps: Caps{Paper: true, Foldable: true},
		build: swap("BSBR", rectRaw{})},
	{Name: "bslc", Caps: Caps{Paper: true, Foldable: true},
		build: swap("BSLC", intervalRLE{})},
	{Name: "bsbrc", Caps: Caps{Paper: true, Foldable: true},
		build: swap("BSBRC", rectRLE{})},
	{Name: "direct",
		build: owners("DirectSend", tagDirect, rectRaw{}, false)},
	{Name: "bsdpf", Caps: Caps{Foldable: true},
		build: swap("BSDPF", forwarded{})},
	{Name: "ds",
		build: owners("DS", tagDS, rectRLE{}, false)},
	{Name: "dfb",
		build: owners("DFB", tagDFB, rectRLE{batched: true}, true)},
}

// swap is a registry line for the binary-swap schedule. The interval
// codec brings the interleaved split with it.
func swap(name string, codec regionCodec) builder {
	_, interleave := codec.(intervalRLE)
	return func(granularity, _ int, _ partition.Layout) Compositor {
		return &swapLoop{name: name, codec: codec, interleave: interleave, granularity: granularity}
	}
}

// owners is a registry line for the owner-merge schedule, over square
// tiles (tiled) or P strips.
func owners(name string, tag int, codec regionCodec, tiled bool) builder {
	return func(_, tile int, lay partition.Layout) Compositor {
		if !tiled {
			tile = 0
		} else if tile <= 0 {
			tile = DefaultTile
		}
		return &ownerMerge{name: name, tag: tag, codec: codec, tile: tile, lay: lay}
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
// methods in pixels (0: one scanline) and tile the dfb tile edge (0:
// DefaultTile); methods without the knob ignore it. A nil plan, or one
// with no folds, builds the method for a power-of-two world described by
// the decomposition passed to Composite. A fold plan with extras adapts
// it to the plan's rank count: foldable methods are wrapped in the
// Folded pre-stage, the owner-routed methods take the plan as pure rank
// geometry (no fold messages); either way Composite must then be given
// plan.Dec.
func Build(name string, granularity, tile int, plan *partition.FoldPlan) (Compositor, error) {
	s, ok := lookup(name)
	switch {
	case !ok:
		return nil, fmt.Errorf("core: unknown compositor %q (have %s)", name, strings.Join(Names(), ", "))
	case plan == nil || plan.Extras() == 0:
		return s.build(granularity, tile, nil), nil
	case s.Caps.Foldable:
		return &Folded{Plan: plan, Inner: s.build(granularity, tile, nil)}, nil
	}
	return s.build(granularity, tile, plan), nil
}

// New returns the named compositor with default settings; Names lists
// the recognized names.
func New(name string) (Compositor, error) { return Build(name, 0, 0, nil) }

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
