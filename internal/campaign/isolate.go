package campaign

import (
	"context"
	"fmt"
	"runtime/debug"

	"thinunison/internal/failpoint"
	"thinunison/internal/obs"
)

// ExecuteIsolated runs Execute with panic isolation: a panic anywhere in the
// scenario (engine bug, injected fault) is recovered and quarantined into a
// failed Record instead of killing the campaign worker, so one pathological
// scenario can never take the whole campaign down. The quarantined record is
// classified transient (Record.Transient), making it eligible for the
// runner's retry/backoff policy.
//
// The campaign/worker failpoint site fires here, before the scenario runs,
// so chaos schedules can kill arbitrary scenarios mid-campaign.
func ExecuteIsolated(ctx context.Context, sc Scenario) (rec Record) {
	defer func() {
		if v := recover(); v != nil {
			rec = quarantined(sc, v)
		}
	}()
	if f := failpoint.Eval(failpoint.CampaignWorker); f.Kind == failpoint.FailPanic {
		panic(f)
	}
	return Execute(ctx, sc)
}

// quarantined builds the failed record for a recovered scenario panic. The
// panic value is preserved in Err behind panicPrefix; real (non-injected)
// panics also carry a trimmed stack so the bug is diagnosable from the JSONL
// alone.
func quarantined(sc Scenario, v any) Record {
	rec := newRecord(sc)
	msg := fmt.Sprintf("%s%v", panicPrefix, v)
	if _, injected := v.(failpoint.Fire); !injected {
		// Real panic: carry a trimmed stack so the bug is diagnosable from
		// the JSONL alone. Injected ones are diagnosed by the schedule.
		stack := debug.Stack()
		if len(stack) > 2048 {
			stack = stack[:2048]
		}
		msg = fmt.Sprintf("%s\n%s", msg, stack)
	}
	rec.fail(fmt.Errorf("%s", msg))
	rec.Engine = &obs.Snapshot{WorkerPanics: 1}
	return rec
}
