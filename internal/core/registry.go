package core

import (
	"fmt"
	"strings"
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

// builder returns a method configured with the interleave granularity;
// each method reads the knobs it has.
type builder func(granularity int) Compositor

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

// swap is a registry line for the binary-swap schedule. The interval
// codec brings the interleaved split with it.
func swap(name string, codec regionCodec) builder {
	_, interleave := codec.(intervalRLE)
	return func(granularity int) Compositor {
		return &swapLoop{name: name, codec: codec, interleave: interleave, granularity: granularity}
	}
}

// owners is a registry line for the owner-merge schedule, over square
// tiles of edge tile or, with tile 0, P strips.
func owners(name string, tag int, codec regionCodec, tile int) builder {
	return func(int) Compositor {
		return &ownerMerge{name: name, tag: tag, codec: codec, tile: tile}
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

// Build returns the named method configured and ready to run at any
// rank count the decomposition passed to Composite describes.
// granularity is the interleave section size of the load-balanced
// methods in pixels (0: one scanline); methods without the knob ignore
// it.
func Build(name string, granularity int) (Compositor, error) {
	s, ok := lookup(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown compositor %q (have %s)", name, strings.Join(Names(), ", "))
	}
	return s.build(granularity), nil
}

// New returns the named compositor with default settings; Names lists
// the recognized names.
func New(name string) (Compositor, error) { return Build(name, 0) }

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
