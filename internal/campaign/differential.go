package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
)

// Side is one way of running a scenario list — an execution mode, a remote
// daemon, a fault-injected resume — as seen by Differential: Run returns one
// record per scenario, in index order. A side only produces records, so the
// comparator never branches on which side it is scoring.
type Side struct {
	Name string
	Run  func(ctx context.Context, scs []Scenario) ([]Record, error)
}

// LocalSide runs the scenarios, each passed through mutate (nil keeps them
// as they are), on a Runner with the given worker count and EngineMetrics
// on, so the engine block's trajectory counters stay in the diff.
func LocalSide(name string, workers int, mutate func(*Scenario)) Side {
	return Side{Name: name, Run: func(ctx context.Context, scs []Scenario) ([]Record, error) {
		mutated := append([]Scenario(nil), scs...)
		if mutate != nil {
			for i := range mutated {
				mutate(&mutated[i])
			}
		}
		return (&Runner{Workers: workers, EngineMetrics: true}).Run(ctx, mutated)
	}}
}

// Differential is the record-level differential harness. It runs ref once,
// then each side in turn (a side may arm process-wide state, such as a
// failpoint schedule), and compares each side's records with the
// reference's in Canonical form, scenario by scenario. A side record without
// an engine block (a daemon stream, a resumable log) is compared with the
// reference's block dropped.
//
// Each failure writes the side, the scenario index and seed, the first
// differing JSON field with both values, and both canonical records to w.
// The result counts failing (side, scenario) pairs, one per side that errs
// or returns the wrong number of records, and one per reference record that
// is not ok — so two sides that fail the same way never pass.
func Differential(ctx context.Context, w io.Writer, scs []Scenario, ref Side, sides ...Side) int {
	want, err := ref.Run(ctx, scs)
	if err == nil && len(want) != len(scs) {
		err = fmt.Errorf("%d records for %d scenarios", len(want), len(scs))
	}
	if err != nil {
		fmt.Fprintf(w, "differential: reference %s: %v\n", ref.Name, err)
		return 1
	}
	failures := 0
	for _, rec := range want {
		if !rec.OK {
			failures++
			fmt.Fprintf(w, "differential: reference %s: scenario %d (seed %d) failed: %s\n",
				ref.Name, rec.Scenario, rec.Seed, rec.Err)
		}
	}
	for _, side := range sides {
		got, err := side.Run(ctx, scs)
		if err == nil && len(got) != len(scs) {
			err = fmt.Errorf("%d records for %d scenarios", len(got), len(scs))
		}
		if err != nil {
			failures++
			fmt.Fprintf(w, "differential: %s: %v\n", side.Name, err)
			continue
		}
		diverged := 0
		for i := range got {
			a, b := want[i].Canonical(), got[i].Canonical()
			if b.Engine == nil {
				a.Engine = nil
			}
			la, errA := json.Marshal(&a)
			lb, errB := json.Marshal(&b)
			if errA == nil && errB == nil && bytes.Equal(la, lb) {
				continue
			}
			diverged++
			field, va, vb := firstDiff(reflect.ValueOf(a), reflect.ValueOf(b))
			if field == "" {
				field = fmt.Sprint("encoding: ", errors.Join(errA, errB))
			}
			fmt.Fprintf(w, "differential: %s: scenario %d (seed %d): first difference at %s: %s %s, %s %s\n  %s: %s\n  %s: %s\n",
				side.Name, want[i].Scenario, want[i].Seed, field, ref.Name, va, side.Name, vb,
				ref.Name, la, side.Name, lb)
		}
		failures += diverged
		if diverged > 0 {
			fmt.Fprintf(w, "differential: %s FAILED: %d of %d scenarios differ from %s\n",
				side.Name, diverged, len(scs), ref.Name)
		} else {
			fmt.Fprintf(w, "differential: %s OK: %d scenarios byte-identical to %s\n",
				side.Name, len(scs), ref.Name)
		}
	}
	return failures
}

// firstDiff names the first field of a and b, in JSON encoding order, whose
// values differ, descending into pointed-to blocks ("engine.trans_aa"), and
// returns both values JSON-encoded; field is "" when every field agrees.
func firstDiff(a, b reflect.Value) (field string, va, vb []byte) {
	for i := 0; i < a.NumField(); i++ {
		f := a.Type().Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if !f.IsExported() || name == "-" {
			continue
		}
		x, y := a.Field(i), b.Field(i)
		if x.Kind() == reflect.Pointer && !x.IsNil() && !y.IsNil() {
			if sub, va, vb := firstDiff(x.Elem(), y.Elem()); sub != "" {
				return name + "." + sub, va, vb
			}
			continue
		}
		if !reflect.DeepEqual(x.Interface(), y.Interface()) {
			va, _ = json.Marshal(x.Interface())
			vb, _ = json.Marshal(y.Interface())
			return name, va, vb
		}
	}
	return "", nil, nil
}
