// Package transfer maps volume scalars to optical properties. A Func is
// a pair of 256-entry lookup tables (opacity and intensity); the presets
// reproduce the paper's four workloads: the same engine volume under a
// low threshold (Engine_low — dense images) and a high threshold
// (Engine_high — sparse images), a head setting that keeps skin
// semi-transparent over bright bone, and an opaque setting for the cube.
package transfer

import (
	"fmt"
	"sync/atomic"
)

// Func maps an 8-bit scalar to opacity and intensity, both in [0, 1].
// Opacity is per unit sample step (one voxel); the renderer corrects for
// other step sizes. A Func is immutable once rendered: the ray caster
// keeps a table derived from Opacity on it (NonZeroBelow).
type Func struct {
	Name      string
	Opacity   [256]float64
	Intensity [256]float64

	nzBelow atomic.Pointer[[257]int32] // NonZeroBelow's table, built on first use
}

// NonZeroBelow returns the table t where t[j] counts the non-zero
// Opacity entries with index < j, so t[hi+1] == t[lo] says entries lo
// through hi are all zero. The first call builds it; every later call,
// from any goroutine, shares it.
func (f *Func) NonZeroBelow() *[257]int32 {
	if t := f.nzBelow.Load(); t != nil {
		return t
	}
	t := new([257]int32)
	for j, op := range f.Opacity {
		t[j+1] = t[j]
		if op != 0 {
			t[j+1]++
		}
	}
	f.nzBelow.Store(t)
	return t
}

// Classify returns opacity and intensity for a normalized sample value in
// [0, 1], with linear interpolation between table entries.
func (f *Func) Classify(v float64) (opacity, intensity float64) {
	if v <= 0 {
		return f.Opacity[0], f.Intensity[0]
	}
	if v >= 1 {
		return f.Opacity[255], f.Intensity[255]
	}
	x := v * 255
	i := int(x)
	t := x - float64(i)
	return f.Opacity[i] + t*(f.Opacity[i+1]-f.Opacity[i]),
		f.Intensity[i] + t*(f.Intensity[i+1]-f.Intensity[i])
}

// Ramp builds a transfer function that is fully transparent below lo,
// ramps opacity linearly up to maxOpacity at hi, and keeps it there.
// Intensity follows the scalar value, so denser material renders
// brighter.
func Ramp(name string, lo, hi int, maxOpacity float64) *Func {
	if lo < 0 || hi > 255 || lo >= hi {
		panic(fmt.Sprintf("transfer: invalid ramp [%d,%d]", lo, hi))
	}
	f := &Func{Name: name}
	for v := 0; v < 256; v++ {
		switch {
		case v <= lo:
			f.Opacity[v] = 0
		case v >= hi:
			f.Opacity[v] = maxOpacity
		default:
			f.Opacity[v] = maxOpacity * float64(v-lo) / float64(hi-lo)
		}
		f.Intensity[v] = float64(v) / 255
	}
	return f
}

// EngineLow is the paper's Engine_low setting: a low threshold that picks
// up the whole casting, producing dense subimages.
func EngineLow() *Func { return Ramp("engine_low", 40, 110, 0.08) }

// EngineHigh is the paper's Engine_high setting: a high threshold that
// keeps only the steel liners and bosses, producing sparse subimages.
func EngineHigh() *Func { return Ramp("engine_high", 170, 230, 0.12) }

// Head renders skin faintly and bone strongly, the classic CT-head look.
func Head() *Func {
	f := Ramp("head", 45, 235, 0.25)
	// Suppress soft tissue slightly so the skull dominates.
	for v := 60; v < 170; v++ {
		f.Opacity[v] *= 0.25
	}
	return f
}

// Cube renders the synthetic cube fully opaque at first touch.
func Cube() *Func { return Ramp("cube", 100, 140, 1.0) }

// presets are the paper's four test images' transfer functions, built
// once per process.
var presets = map[string]*Func{
	"engine_low":  EngineLow(),
	"engine_high": EngineHigh(),
	"head":        Head(),
	"cube":        Cube(),
}

// Preset returns the transfer function for one of the paper's four test
// images. It is shared by every caller and must not be modified.
func Preset(name string) (*Func, error) {
	if f, ok := presets[name]; ok {
		return f, nil
	}
	return nil, fmt.Errorf("transfer: unknown preset %q", name)
}
