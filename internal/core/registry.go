package core

import (
	"fmt"

	"sortlast/internal/partition"
)

// Caps are a compositing method's capability flags. Admission (which
// rank counts a method serves) and the benches read the same flags, so
// adding a method means one registry line instead of editing parallel
// lists.
type Caps struct {
	// Paper marks one of the four methods of the paper's evaluation.
	Paper bool
	// Foldable marks a power-of-two binary-swap method that extends to
	// any rank count through the core.Folded pre-stage.
	Foldable bool
	// NativeAnyP marks a method that runs at any rank count without the
	// fold (the owner-routed ds and dfb).
	NativeAnyP bool
	// WireEncoded marks a method whose messages carry sparse encoded
	// payloads rather than dense pixel blocks.
	WireEncoded bool
}

// ServesAnyP reports whether the method runs at non-power-of-two rank
// counts (natively or through the fold).
func (c Caps) ServesAnyP() bool { return c.NativeAnyP || c.Foldable }

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
// four evaluated methods, the related-work baselines, the related-work
// encodings as binary-swap variants (§2/§3.3 ablations), then the
// owner-routed pair that runs natively at any rank count.
var registry = []Spec{
	{Name: "bs", Caps: Caps{Paper: true, Foldable: true},
		build: swap("BS", raw{})},
	{Name: "bsbr", Caps: Caps{Paper: true, Foldable: true},
		build: swap("BSBR", rectRaw{})},
	{Name: "bslc", Caps: Caps{Paper: true, Foldable: true, WireEncoded: true},
		build: swap("BSLC", intervalRLE{})},
	{Name: "bsbrc", Caps: Caps{Paper: true, Foldable: true, WireEncoded: true},
		build: swap("BSBRC", rectRLE{})},
	{Name: "direct",
		build: owners("DirectSend", tagDirect, rectRaw{}, false)},
	{Name: "pipeline",
		build: fixed(Pipeline{})},
	{Name: "bintree", Caps: Caps{WireEncoded: true},
		build: fixed(BinaryTree{})},
	{Name: "bsdpf", Caps: Caps{Foldable: true},
		build: swap("BSDPF", forwarded{})},
	{Name: "bsvc", Caps: Caps{Foldable: true, WireEncoded: true},
		build: swap("BSVC", valueRuns{})},
	{Name: "bsbrlc", Caps: Caps{Foldable: true, WireEncoded: true},
		build: swap("BSBRLC", intervalRLE{rect: true})},
	{Name: "ds", Caps: Caps{NativeAnyP: true, WireEncoded: true},
		build: owners("DS", tagDS, rectRLE{}, false)},
	{Name: "dfb", Caps: Caps{NativeAnyP: true, WireEncoded: true},
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

// fixed is a registry line for a schedule without knobs.
func fixed(c Compositor) builder {
	return func(int, int, partition.Layout) Compositor { return c }
}

// Lookup returns the named method's spec.
func Lookup(name string) (Spec, bool) {
	for _, s := range registry {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Specs returns the registered methods in registry order.
func Specs() []Spec {
	out := make([]Spec, len(registry))
	copy(out, registry)
	return out
}

// Build returns the named method configured and ready to run.
// granularity is the interleave section size of the load-balanced
// methods in pixels (0: one scanline) and tile the dfb tile edge (0:
// DefaultTile); methods without the knob ignore it. A nil plan builds
// the method for a power-of-two world described by the decomposition
// passed to Composite. A fold plan adapts it to the plan's rank count:
// foldable methods are wrapped in the Folded pre-stage, natively any-P
// methods take the plan as pure rank geometry (no fold messages); either
// way Composite must then be given plan.Dec.
func Build(name string, granularity, tile int, plan *partition.FoldPlan) (Compositor, error) {
	s, ok := Lookup(name)
	switch {
	case !ok:
		return nil, fmt.Errorf("core: unknown compositor %q", name)
	case plan == nil:
		return s.build(granularity, tile, nil), nil
	case s.Caps.NativeAnyP:
		return s.build(granularity, tile, plan), nil
	case s.Caps.Foldable:
		return &Folded{Plan: plan, Inner: s.build(granularity, tile, nil)}, nil
	}
	return nil, fmt.Errorf("core: compositor %q needs a power-of-two rank count", name)
}

// New returns the named compositor with default settings; Names lists
// the recognized names.
func New(name string) (Compositor, error) { return Build(name, 0, 0, nil) }

// Known reports whether name is a registered compositor, so admission
// layers can validate a method name without constructing the compositor
// or parsing New's error.
func Known(name string) bool {
	_, ok := Lookup(name)
	return ok
}

// Names lists the compositors in registration order.
func Names() []string {
	out := make([]string, len(registry))
	for i, s := range registry {
		out[i] = s.Name
	}
	return out
}

// PaperMethods lists the four methods of the paper's evaluation.
func PaperMethods() []string { return namesWhere(func(c Caps) bool { return c.Paper }) }

// ServesAnyP reports whether the named method runs at non-power-of-two
// rank counts; false for unknown names.
func ServesAnyP(name string) bool {
	s, ok := Lookup(name)
	return ok && s.Caps.ServesAnyP()
}

// Pow2OnlyMethods lists the registered methods restricted to
// power-of-two rank counts, for admission errors that name them.
func Pow2OnlyMethods() []string { return namesWhere(func(c Caps) bool { return !c.ServesAnyP() }) }

// AnyPMethods lists the registered methods serving any rank count.
func AnyPMethods() []string { return namesWhere(Caps.ServesAnyP) }

func namesWhere(pred func(Caps) bool) []string {
	var out []string
	for _, s := range registry {
		if pred(s.Caps) {
			out = append(out, s.Name)
		}
	}
	return out
}
