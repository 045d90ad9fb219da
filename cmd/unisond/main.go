// Command unisond is the long-lived simulation daemon: it owns a bounded
// fleet of campaign engines behind a unix-domain socket and serves
// submit/attach/stream/cancel to thin clients (unisonctl).
//
//	unisond -socket /tmp/unison.sock -state /var/lib/unison &
//	unisonctl -socket /tmp/unison.sock submit -preset smoke
//	unisonctl -socket /tmp/unison.sock attach r0
//
// With -state, every run's manifest and record journal survive a crash: a
// restarted daemon resumes or reports every in-flight run. SIGINT/SIGTERM
// (or a client shutdown op) stop the daemon with a bounded drain.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"thinunison/internal/daemon"
	"thinunison/internal/obs"
)

func main() {
	var (
		socket       = flag.String("socket", "unison.sock", "unix-domain socket path to serve on")
		state        = flag.String("state", "", "state directory for crash-safe run persistence (empty = ephemeral)")
		fleet        = flag.Int("fleet", 0, "engine-fleet capacity in worker slots (0 = NumCPU)")
		maxActive    = flag.Int("max-active", 0, "max concurrently executing runs (0 = fleet)")
		maxQueue     = flag.Int("queue", 0, "max queued submissions beyond max-active (0 = 4*max-active, -1 = none)")
		retries      = flag.Int("retries", 0, "retries for transiently failing scenarios")
		debugAddr    = flag.String("debug-addr", "", "serve expvar+pprof on this address (e.g. localhost:6060)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "bound on graceful shutdown")
	)
	flag.Parse()

	s, err := daemon.New(daemon.Options{
		StateDir:  *state,
		Fleet:     *fleet,
		MaxActive: *maxActive,
		MaxQueue:  *maxQueue,
		Retries:   *retries,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "unisond:", err)
		os.Exit(1)
	}

	if *debugAddr != "" {
		obs.Publish("daemon", s.Metrics())
		addr, stop, err := obs.Serve(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "unisond: debug endpoint:", err)
			os.Exit(1)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "unisond: debug endpoint on http://%s/debug/vars\n", addr)
	}

	if err := s.ListenAndServe(*socket); err != nil {
		fmt.Fprintln(os.Stderr, "unisond:", err)
		os.Exit(1)
	}
	defer os.Remove(*socket)
	fmt.Fprintf(os.Stderr, "unisond: serving on %s\n", *socket)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	drain := false
	select {
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "unisond: %v: shutting down\n", got)
	case <-s.ShutdownRequested():
		drain = s.DrainRequested()
		fmt.Fprintf(os.Stderr, "unisond: client shutdown (drain=%v)\n", drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := s.Shutdown(ctx, drain); err != nil {
		fmt.Fprintln(os.Stderr, "unisond:", err)
		os.Exit(1)
	}
}
