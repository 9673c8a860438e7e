package server

import (
	"fmt"
	"strings"

	"sortlast/internal/core"
)

// UnknownMethodError reports a request naming a compositing method the
// server does not serve. submit maps it to CodeBadRequest, so a client
// typo is rejected at admission instead of surfacing as a plan error
// deeper in the pipeline.
type UnknownMethodError struct {
	Method string
	Known  []string
}

func (e *UnknownMethodError) Error() string {
	return fmt.Sprintf("server: unknown method %q (have %s)",
		e.Method, strings.Join(e.Known, ", "))
}

// ValidateMethod checks a request's method name. Empty is valid (the
// server default applies); anything else must be a registered
// compositor. The error, when non-nil, is an *UnknownMethodError.
func ValidateMethod(method string) error {
	if method == "" || core.Known(method) {
		return nil
	}
	return &UnknownMethodError{Method: method, Known: core.Names()}
}
