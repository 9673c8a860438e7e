package obs

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// DrainOnSignal is the tail of a daemon's main: it blocks until SIGINT
// or SIGTERM, says so on stdout, and runs shutdown under a context that
// expires after budget.
func DrainOnSignal(name string, budget time.Duration, shutdown func(context.Context) error) error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("%s: draining...\n", name)
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	return shutdown(ctx)
}
