// Package daemonclient is the thin client for the unisond daemon: it speaks
// the internal/daemon/wire protocol over a unix-domain socket (or any
// address a test listener hands it), one request per connection.
//
// The client is deliberately dumb — no retries, no caching, no state beyond
// the address — in the kdo / kpod tradition of daemonless control binaries:
// cmd/unisonctl and the remote cell of cmd/campaign -check are both just
// argument parsing around these calls.
package daemonclient

import (
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"thinunison/internal/daemon/wire"
	"thinunison/internal/obs"
)

// Client talks to one daemon. The zero value is unusable; construct with New.
type Client struct {
	network string
	addr    string
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
}

// New returns a client for addr. An address containing a path separator (or
// prefixed "unix:") is a unix-domain socket path — the default transport —
// and "tcp:host:port" dials TCP, which tests use for in-memory listeners.
func New(addr string) *Client {
	c := &Client{network: "unix", addr: addr, DialTimeout: 5 * time.Second}
	switch {
	case strings.HasPrefix(addr, "unix:"):
		c.addr = strings.TrimPrefix(addr, "unix:")
	case strings.HasPrefix(addr, "tcp:"):
		c.network, c.addr = "tcp", strings.TrimPrefix(addr, "tcp:")
	}
	return c
}

// dial opens one connection.
func (c *Client) dial() (net.Conn, error) {
	conn, err := net.DialTimeout(c.network, c.addr, c.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("daemonclient: dial %s %s: %w", c.network, c.addr, err)
	}
	return conn, nil
}

// roundTrip performs one request/response exchange and closes the
// connection.
func (c *Client) roundTrip(req wire.Request) (wire.Response, error) {
	conn, err := c.dial()
	if err != nil {
		return wire.Response{}, err
	}
	defer conn.Close()
	req.V = wire.Version
	if err := wire.WriteFrame(conn, req); err != nil {
		return wire.Response{}, err
	}
	resp, err := wire.ReadResponse(conn)
	if err != nil {
		return wire.Response{}, err
	}
	if !resp.OK {
		return resp, fmt.Errorf("daemonclient: %s: %s", req.Op, resp.Err)
	}
	return resp, nil
}

// Ping checks daemon liveness.
func (c *Client) Ping() error {
	_, err := c.roundTrip(wire.Request{Op: wire.OpPing})
	return err
}

// Submit submits one run and returns its info (without waiting for it).
func (c *Client) Submit(spec wire.SubmitSpec) (wire.RunInfo, error) {
	resp, err := c.roundTrip(wire.Request{Op: wire.OpSubmit, Submit: &spec})
	if err != nil {
		return wire.RunInfo{}, err
	}
	if resp.Run == nil {
		return wire.RunInfo{}, fmt.Errorf("daemonclient: submit: response without run info")
	}
	return *resp.Run, nil
}

// Cancel asks the daemon to stop a run.
func (c *Client) Cancel(id string) (wire.RunInfo, error) {
	return c.runOp(wire.Request{Op: wire.OpCancel, Run: id})
}

// Status fetches one run's state.
func (c *Client) Status(id string) (wire.RunInfo, error) {
	return c.runOp(wire.Request{Op: wire.OpStatus, Run: id})
}

func (c *Client) runOp(req wire.Request) (wire.RunInfo, error) {
	resp, err := c.roundTrip(req)
	if err != nil {
		return wire.RunInfo{}, err
	}
	if resp.Run == nil {
		return wire.RunInfo{}, fmt.Errorf("daemonclient: %s: response without run info", req.Op)
	}
	return *resp.Run, nil
}

// List fetches every run the daemon knows, in submission order.
func (c *Client) List() ([]wire.RunInfo, error) {
	resp, err := c.roundTrip(wire.Request{Op: wire.OpList})
	if err != nil {
		return nil, err
	}
	return resp.Runs, nil
}

// Metrics fetches the daemon-wide engine-counter aggregate.
func (c *Client) Metrics() (obs.Snapshot, error) {
	resp, err := c.roundTrip(wire.Request{Op: wire.OpMetrics})
	if err != nil {
		return obs.Snapshot{}, err
	}
	if resp.Metrics == nil {
		return obs.Snapshot{}, fmt.Errorf("daemonclient: metrics: empty response")
	}
	return *resp.Metrics, nil
}

// Shutdown asks the daemon to exit; drain lets active runs finish first.
func (c *Client) Shutdown(drain bool) error {
	_, err := c.roundTrip(wire.Request{Op: wire.OpShutdown, Drain: drain})
	return err
}

// Attach streams a run's events from sequence from (0 = the beginning),
// invoking fn for each until the stream ends. It returns the run's final
// info from the eof event. fn returning an error detaches (the daemon keeps
// running the run) and surfaces that error; ctx cancellation detaches too.
// Because record events replay from any cursor, a detached client loses
// nothing: re-attach with the last seen sequence.
func (c *Client) Attach(ctx context.Context, id string, from uint64, fn func(wire.Event) error) (wire.RunInfo, error) {
	conn, err := c.dial()
	if err != nil {
		return wire.RunInfo{}, err
	}
	defer conn.Close()
	// Detach on ctx cancellation by cutting the socket out from under the
	// blocked read; the watcher is released via stop when the stream ends.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-stop:
		}
	}()

	req := wire.Request{V: wire.Version, Op: wire.OpAttach, Run: id, From: from}
	if err := wire.WriteFrame(conn, req); err != nil {
		return wire.RunInfo{}, err
	}
	resp, err := wire.ReadResponse(conn)
	if err != nil {
		return wire.RunInfo{}, err
	}
	if !resp.OK {
		return wire.RunInfo{}, fmt.Errorf("daemonclient: attach: %s", resp.Err)
	}
	for {
		ev, err := wire.ReadEvent(conn)
		if err != nil {
			if ctx.Err() != nil {
				return wire.RunInfo{}, ctx.Err()
			}
			return wire.RunInfo{}, fmt.Errorf("daemonclient: attach stream: %w", err)
		}
		if ev.Type == wire.EventEOF {
			info := wire.RunInfo{}
			if ev.Run != nil {
				info = *ev.Run
			}
			return info, nil
		}
		if fn != nil {
			if err := fn(ev); err != nil {
				return wire.RunInfo{}, err
			}
		}
	}
}

// Run submits spec and streams the run to completion, writing every record
// as one JSONL line to records (nil discards them). The lines are
// byte-identical to what an in-process campaign run would emit — the daemon
// journals and streams the exact encoded record bytes. It returns the run's
// final info.
func (c *Client) Run(ctx context.Context, spec wire.SubmitSpec, records io.Writer) (wire.RunInfo, error) {
	info, err := c.Submit(spec)
	if err != nil {
		return info, err
	}
	return c.Follow(ctx, info.ID, records)
}

// Follow attaches to a run from the beginning and writes its records as
// JSONL lines to records (nil discards them) until the run ends.
func (c *Client) Follow(ctx context.Context, id string, records io.Writer) (wire.RunInfo, error) {
	return c.Attach(ctx, id, 0, func(ev wire.Event) error {
		if ev.Type != wire.EventRecord || records == nil {
			return nil
		}
		if _, err := records.Write(append(ev.Record, '\n')); err != nil {
			return err
		}
		return nil
	})
}
