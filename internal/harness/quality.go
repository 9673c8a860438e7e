package harness

import "fmt"

// Quality contracts: a request names how much fidelity it is willing to
// trade for latency, and every layer honors the same two names. The
// serving tier's wire protocol re-exports these constants.
//
//	full    — the default: byte-identical to a plain render.
//	preview — quarter-resolution render (PreviewDims); the client
//	          upscales. Resolution degrades, pixel values do not.
const (
	QualityFull    = "full"
	QualityPreview = "preview"
)

// NormalizeQuality maps the empty string to QualityFull and rejects
// unknown names, so admission layers can fail bad contracts up front.
func NormalizeQuality(q string) (string, error) {
	switch q {
	case "", QualityFull:
		return QualityFull, nil
	case QualityPreview:
		return q, nil
	}
	return "", fmt.Errorf("harness: unknown quality %q (have %s, %s)",
		q, QualityFull, QualityPreview)
}

// PreviewDims is the preview contract's render geometry: each dimension
// halves (rounding up, so odd sizes keep their last pixel column/row).
// A quarter of the rays means roughly a quarter of the render cost; the
// reply carries these reduced dimensions and the client library
// upscales back to the requested size.
func PreviewDims(w, h int) (int, int) {
	return (w + 1) / 2, (h + 1) / 2
}
