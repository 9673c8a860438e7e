package autotune

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"time"

	"sortlast/internal/core"
	"sortlast/internal/costmodel"
	"sortlast/internal/frame"
	"sortlast/internal/rle"
	"sortlast/internal/stats"
)

// MethodAuto is the method name that requests adaptive per-frame
// selection, accepted wherever a concrete method name is.
const MethodAuto = "auto"

// IsAuto reports whether a method name requests adaptive selection.
func IsAuto(method string) bool { return method == MethodAuto }

// Candidates are the methods the selector chooses among: every
// registered method carrying a closed-form cost model — the paper's
// four evaluated methods, the §3.3 interleaved-compression variant, and
// the owner-routed pair (ds, dfb). All of them serve non-power-of-two
// worlds (the binary-swap family folds, the owner-routed pair runs
// natively at any P), so an "auto" request is valid wherever a fixed
// method request is.
func Candidates() []string {
	return core.ModelBacked()
}

// bsbrlcOverhead models BSBRLC's interleave bookkeeping relative to
// BSBRC: the same scans and bytes plus per-section code framing. The
// model alone cannot separate the two (they move the same pixels), so
// BSBRLC starts slightly behind and must earn selection through its
// measured EWMA factor.
const bsbrlcOverhead = 1.02

// Prediction is the modeled cost of one method for one feature vector.
type Prediction struct {
	Method string        `json:"method"`
	Comp   time.Duration `json:"comp"`
	Comm   time.Duration `json:"comm"`
	// Factor is the EWMA correction applied at ranking time.
	Factor float64 `json:"factor"`
	// Score is (Comp+Comm)·Factor — what the argmin ranks.
	Score time.Duration `json:"score"`
}

// Predict evaluates the Eq. 1–8 closed forms for one method over a
// feature vector. The per-stage sums collapse: Σ_{k=1..n} A/2^k =
// A(1-1/P), with n = log2 P swap stages (a non-power-of-two world folds
// first; the fold is charged as one extra dense exchange of the
// fractional remainder).
func Predict(p costmodel.Params, method string, f Features) (costmodel.Cost, error) {
	if !f.valid() {
		return costmodel.Cost{}, fmt.Errorf("autotune: invalid features %+v", f)
	}
	area := float64(f.Width * f.Height)
	stages := float64(bits.Len(uint(f.P - 1))) // ⌈log2 P⌉
	// Total dense pixels delivered to one rank across the swap.
	sumHalves := area * (1 - 1/float64(f.P))
	// Run-length codes covering one frame of area: a blank lead plus a
	// non-blank length per run, per occupied scanline.
	frameCodes := 2 * f.Runs * float64(f.Height)

	alpha, beta := clamp01(f.Alpha), clamp01(f.Beta)
	if beta < alpha {
		beta = alpha // a rectangle can never be smaller than its content
	}

	dur := func(per time.Duration, n float64) time.Duration {
		return time.Duration(float64(per) * n)
	}
	var comp, comm time.Duration
	startup := dur(p.Ts, stages)
	switch method {
	case "bs":
		// Eq. 1/2: every delivered pixel is composited, every half is
		// shipped dense.
		comp = dur(p.To, sumHalves)
		comm = startup + dur(p.Tc, float64(frame.PixelBytes)*sumHalves)
	case "bsbr":
		// Eq. 3/4: one O(A) bounding scan, then rectangle-clipped dense
		// exchange — β of the pixels, still composited dense.
		comp = dur(p.Tbound, area) + dur(p.To, beta*sumHalves)
		comm = startup + dur(p.Tc, float64(frame.PixelBytes)*beta*sumHalves+float64(frame.RectBytes)*stages)
	case "bslc":
		// Eq. 5/6: encode scans the full half every stage; only non-blank
		// pixels ship and composite, plus the run-length codes.
		comp = dur(p.Tencode, sumHalves) + dur(p.To, alpha*sumHalves)
		comm = startup + dur(p.Tc,
			float64(frame.PixelBytes)*alpha*sumHalves+float64(rle.CodeBytes)*frameCodes)
	case "bsbrc", "bsbrlc":
		// Eq. 7/8: one O(A) bounding scan, encode scans only the sending
		// rectangle (β of the half), non-blank pixels ship and composite.
		comp = dur(p.Tbound, area) + dur(p.Tencode, beta*sumHalves) + dur(p.To, alpha*sumHalves)
		comm = startup + dur(p.Tc,
			float64(frame.PixelBytes)*alpha*sumHalves+
				float64(rle.CodeBytes)*frameCodes+
				float64(frame.RectBytes)*stages)
		if method == "bsbrlc" {
			comp = time.Duration(float64(comp) * bsbrlcOverhead)
		}
	case "ds", "dfb":
		// Tile-routed closed forms (internal/costmodel, tilerouted.go):
		// one route round to static owners, so the delivered pixels are
		// one frame's non-blank content spread across P owners instead of
		// binary swap's A(1-1/P) per rank.
		sp := costmodel.Sparsity{
			Area: area, Alpha: alpha, Beta: beta,
			FrameCodes: frameCodes, P: f.P,
		}
		var cost costmodel.Cost
		if method == "ds" {
			cost = p.DirectSendCost(sp)
		} else {
			cost = p.TileRoutedCost(sp, core.DefaultTile)
		}
		comp, comm = cost.Comp, cost.Comm
	default:
		return costmodel.Cost{}, fmt.Errorf("autotune: no model for method %q", method)
	}
	return costmodel.Cost{Comp: comp, Comm: comm}, nil
}

// Choice is one selection decision: the winning method and the full
// ranking it was drawn from.
type Choice struct {
	Method      string       `json:"method"`
	Features    Features     `json:"features"`
	Predictions []Prediction `json:"predictions"` // ascending by Score
}

// ewmaLambda weights a new measurement against the standing correction
// factor. 0.3 converges in a handful of frames yet rides out a single
// anomalous one.
const ewmaLambda = 0.3

// Factor bounds keep one wild measurement (GC pause, cold cache) from
// exiling a method permanently.
const (
	minFactor = 0.05
	maxFactor = 20.0
)

// Selector picks a compositing method per frame from a calibrated
// model, and corrects itself from measurements. It is safe for
// concurrent use; a serving tier shares one selector across requests so
// the corrections accumulate.
type Selector struct {
	params    costmodel.Params
	transport string

	mu       sync.Mutex
	feats    Features
	hasFeats bool
	factors  map[string]float64
	selected map[string]int
	observed int
	last     *Choice
}

// NewSelector builds a selector over one transport's calibrated
// parameters. transport is recorded for introspection only.
func NewSelector(params costmodel.Params, transport string) *Selector {
	s := &Selector{params: params, transport: transport,
		factors:  make(map[string]float64, len(Candidates())),
		selected: make(map[string]int, len(Candidates())),
	}
	for _, m := range Candidates() {
		s.factors[m] = 1
	}
	return s
}

// Params returns the model parameters the selector ranks with.
func (s *Selector) Params() costmodel.Params { return s.params }

// Transport returns the transport the parameters were calibrated for.
func (s *Selector) Transport() string { return s.transport }

// Seed installs a feature vector (typically from Prescan or
// ScanFeatures) as the current frame description.
func (s *Selector) Seed(f Features) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f.valid() {
		s.feats, s.hasFeats = f, true
	}
}

// Features returns the current feature vector, false when none has been
// seeded or observed yet.
func (s *Selector) Features() (Features, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.feats, s.hasFeats
}

// Choose ranks every candidate for the given features and returns the
// argmin. It does not mutate the stored feature vector.
func (s *Selector) Choose(f Features) (Choice, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.chooseLocked(f)
}

// ChooseFor selects for a target frame geometry using the stored
// feature vector; ok is false when nothing has been seeded yet (the
// caller should Prescan and Seed first).
func (s *Selector) ChooseFor(width, height, p int) (Choice, bool, error) {
	return s.ChooseForQuality(width, height, p, "")
}

// ChooseForQuality is ChooseFor under a quality contract: predictions
// rank with that contract's correction row, so the Eq. 1–8 argmin runs
// per contract (a preview frame's quarter-size images earn corrections
// of their own instead of polluting the full-quality row).
func (s *Selector) ChooseForQuality(width, height, p int, quality string) (Choice, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.hasFeats {
		return Choice{}, false, nil
	}
	f := s.feats.WithTarget(width, height, p)
	f.Quality = quality
	c, err := s.chooseLocked(f)
	return c, err == nil, err
}

// factorKey buckets correction state per (method, quality contract).
// Full-quality shares the bare method key — seeding, snapshots and every
// pre-contract caller keep their meaning — while other contracts get a
// composite "method@quality" row of their own.
func factorKey(method, quality string) string {
	if quality == "" || quality == "full" {
		return method
	}
	return method + "@" + quality
}

// factorLocked returns the EWMA correction for one (method, quality)
// row; rows not yet observed start at the uncorrected 1.
func (s *Selector) factorLocked(method, quality string) float64 {
	if v, ok := s.factors[factorKey(method, quality)]; ok {
		return v
	}
	return 1
}

func (s *Selector) chooseLocked(f Features) (Choice, error) {
	preds := make([]Prediction, 0, len(Candidates()))
	for _, m := range Candidates() {
		cost, err := Predict(s.params, m, f)
		if err != nil {
			return Choice{}, err
		}
		factor := s.factorLocked(m, f.Quality)
		preds = append(preds, Prediction{
			Method: m, Comp: cost.Comp, Comm: cost.Comm,
			Factor: factor,
			Score:  time.Duration(float64(cost.Total()) * factor),
		})
	}
	sort.SliceStable(preds, func(i, j int) bool { return preds[i].Score < preds[j].Score })
	ch := Choice{Method: preds[0].Method, Features: f, Predictions: preds}
	s.selected[factorKey(ch.Method, f.Quality)]++
	s.last = &ch
	return ch, nil
}

// Observe feeds one measured compositing wall time (the slowest rank,
// communication waits included) back into the chosen method's EWMA
// correction factor. The factor is the standing ratio of measured to
// modeled time; predictions are multiplied by it at ranking time, so a
// method the model flatters loses ground until its factor says
// otherwise. Features f must be the vector the frame was selected with.
func (s *Selector) Observe(method string, f Features, measured time.Duration) {
	if measured <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.factors[method]; !ok {
		return // not a candidate (fixed-method frame); nothing to correct
	}
	cost, err := Predict(s.params, method, f)
	if err != nil || cost.Total() <= 0 {
		return
	}
	// The measurement lands in the row of the contract the frame was
	// selected under (f carries it), lazily creating non-full rows.
	key := factorKey(method, f.Quality)
	ratio := float64(measured) / float64(cost.Total())
	factor := (1-ewmaLambda)*s.factorLocked(method, f.Quality) + ewmaLambda*ratio
	s.factors[key] = math.Min(math.Max(factor, minFactor), maxFactor)
	s.observed++
}

// UpdateFromStats replaces the stored feature vector with one derived
// from a completed frame's exact counters (see StatsFeatures), so the
// next frame predicts from what actually just rendered instead of a
// stale pre-scan.
func (s *Selector) UpdateFromStats(width, height, p int, method string, ranks []*stats.Rank) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := StatsFeatures(s.feats, width, height, p, method, ranks)
	if f.valid() {
		s.feats, s.hasFeats = f, true
	}
}

// Snapshot is the introspection surface served by /debug/autotune: the
// model parameters, the standing features, the latest full ranking, the
// EWMA factors and the per-method selection counts.
type Snapshot struct {
	Transport  string             `json:"transport"`
	Params     costmodel.Params   `json:"params"`
	Features   *Features          `json:"features,omitempty"`
	LastChoice *Choice            `json:"last_choice,omitempty"`
	Factors    map[string]float64 `json:"factors"`
	Selected   map[string]int     `json:"selected"`
	Observed   int                `json:"observed"`
}

// Snapshot returns a copy of the selector's current state.
func (s *Selector) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := Snapshot{
		Transport: s.transport,
		Params:    s.params,
		Factors:   make(map[string]float64, len(s.factors)),
		Selected:  make(map[string]int, len(s.selected)),
		Observed:  s.observed,
	}
	for m, v := range s.factors {
		snap.Factors[m] = v
	}
	for m, n := range s.selected {
		snap.Selected[m] = n
	}
	if s.hasFeats {
		f := s.feats
		snap.Features = &f
	}
	if s.last != nil {
		ch := *s.last
		snap.LastChoice = &ch
	}
	return snap
}
