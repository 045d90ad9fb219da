// Command unisonctl is the control client for unisond, the simulation
// daemon: every subcommand is one wire round-trip (attach upgrades into an
// event stream).
//
//	unisonctl -socket /tmp/unison.sock ping
//	unisonctl -socket /tmp/unison.sock submit -preset smoke -follow
//	unisonctl -socket /tmp/unison.sock submit -graph cycle -n 64 -alg au
//	unisonctl -socket /tmp/unison.sock attach r0
//	unisonctl -socket /tmp/unison.sock cancel r0
//	unisonctl -socket /tmp/unison.sock list
//	unisonctl -socket /tmp/unison.sock shutdown -drain
//
// Streamed records are JSONL on stdout, byte-identical to what an
// in-process campaign run of the same submission would write.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"thinunison/internal/campaign"
	"thinunison/internal/daemon/wire"
	"thinunison/internal/daemonclient"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "unisonctl:", err)
		os.Exit(1)
	}
}

func usage() error {
	return fmt.Errorf("usage: unisonctl [-socket path] ping|submit|attach|status|cancel|list|metrics|shutdown [args]")
}

func run() error {
	socket := flag.String("socket", "unison.sock", "daemon socket (unix path, or tcp:host:port)")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		return usage()
	}
	c := daemonclient.New(*socket)
	cmd, args := args[0], args[1:]
	switch cmd {
	case "ping":
		if err := c.Ping(); err != nil {
			return err
		}
		fmt.Println("ok")
		return nil
	case "submit":
		return submit(c, args)
	case "attach":
		return attach(c, args)
	case "status":
		return runOp(args, "status", c.Status)
	case "cancel":
		return runOp(args, "cancel", c.Cancel)
	case "list":
		runs, err := c.List()
		if err != nil {
			return err
		}
		for _, info := range runs {
			printInfo(info)
		}
		return nil
	case "metrics":
		snap, err := c.Metrics()
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(snap)
	case "shutdown":
		fs := flag.NewFlagSet("shutdown", flag.ContinueOnError)
		drain := fs.Bool("drain", false, "let active runs finish before exiting")
		if err := fs.Parse(args); err != nil {
			return err
		}
		return c.Shutdown(*drain)
	default:
		return usage()
	}
}

func runOp(args []string, name string, op func(string) (wire.RunInfo, error)) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: unisonctl %s <run-id>", name)
	}
	info, err := op(args[0])
	if err != nil {
		return err
	}
	printInfo(info)
	return nil
}

func printInfo(info wire.RunInfo) { fprintInfo(os.Stdout, info) }

// fprintInfo writes the one-line run summary. The streaming subcommands
// (submit -follow, attach) send it to stderr so stdout stays pure JSONL.
func fprintInfo(w io.Writer, info wire.RunInfo) {
	what := info.Preset
	if what == "" {
		what = "scenario"
	}
	fmt.Fprintf(w, "%s\t%s\t%s\t%d/%d records", info.ID, info.State, what, info.Done, info.Scenarios)
	if info.Failures > 0 {
		fmt.Fprintf(w, "\t%d failed", info.Failures)
	}
	if info.Recovered > 0 {
		fmt.Fprintf(w, "\t%d salvaged", info.Recovered)
	}
	if info.Err != "" {
		fmt.Fprintf(w, "\t%s", info.Err)
	}
	fmt.Fprintln(w)
}

// submit builds a SubmitSpec from flags: either -preset, or an inline
// scenario from the same knobs cmd/unisonsim takes.
func submit(c *daemonclient.Client, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	var (
		preset  = fs.String("preset", "", "campaign preset to run (see cmd/campaign -list)")
		family  = fs.String("graph", "cycle", "topology: path|cycle|star|complete|grid|tree|random|boundedD")
		n       = fs.Int("n", 8, "number of nodes")
		d       = fs.Int("d", 0, "diameter bound (0 = graph diameter)")
		sched   = fs.String("sched", "sync", "scheduler: sync|rr|random|laggard|permuted")
		alg     = fs.String("alg", "au", "algorithm: au|mis|le|sync-mis|sync-le")
		faults  = fs.Int("faults", 0, "transient faults injected per burst")
		trials  = fs.Int("trials", 1, "trials of the scenario")
		seed    = fs.Int64("seed", 1, "campaign seed")
		id      = fs.String("id", "", "client-chosen run id (default daemon-assigned)")
		workers = fs.Int("workers", 0, "most fleet slots the run may hold at once (0 = the whole fleet)")
		follow  = fs.Bool("follow", false, "attach and stream records until the run ends")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec := wire.SubmitSpec{ID: *id, Seed: *seed, Workers: *workers}
	if *preset != "" {
		spec.Preset = *preset
	} else {
		schedSpec, err := schedulerSpec(*sched)
		if err != nil {
			return err
		}
		spec.Scenario = &wire.ScenarioSpec{
			Family:    *family,
			N:         *n,
			D:         *d,
			Scheduler: schedSpec,
			Algorithm: *alg,
			Faults:    campaign.FaultSpec{Count: *faults},
			Trials:    *trials,
		}
	}
	if !*follow {
		info, err := c.Submit(spec)
		if err != nil {
			return err
		}
		printInfo(info)
		return nil
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	info, err := c.Run(ctx, spec, os.Stdout)
	if err != nil {
		return err
	}
	fprintInfo(os.Stderr, info)
	if info.State != wire.StateDone {
		return fmt.Errorf("run %s ended %s", info.ID, info.State)
	}
	return nil
}

// attach re-streams an existing run from a cursor.
func attach(c *daemonclient.Client, args []string) error {
	fs := flag.NewFlagSet("attach", flag.ContinueOnError)
	from := fs.Uint64("from", 0, "replay records from this sequence number (0 = beginning)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: unisonctl attach [-from seq] <run-id>")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	info, err := c.Attach(ctx, fs.Arg(0), *from, func(ev wire.Event) error {
		if ev.Type != wire.EventRecord {
			return nil
		}
		_, werr := os.Stdout.Write(append(ev.Record, '\n'))
		return werr
	})
	if err != nil {
		return err
	}
	fprintInfo(os.Stderr, info)
	return nil
}

// schedulerSpec maps the CLI scheduler names (shared with cmd/unisonsim) to
// declarative campaign specs.
func schedulerSpec(name string) (campaign.SchedulerSpec, error) {
	switch name {
	case "sync":
		return campaign.Synchronous, nil
	case "rr":
		return campaign.RoundRobin, nil
	case "random":
		return campaign.RandomSubset, nil
	case "laggard":
		return campaign.Laggard, nil
	case "permuted":
		return campaign.Permuted, nil
	}
	return campaign.SchedulerSpec{}, fmt.Errorf("unknown scheduler %q (want sync|rr|random|laggard|permuted)", name)
}
