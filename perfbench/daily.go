package main

import (
	"fmt"
	"time"

	"intellitag/internal/core"
	"intellitag/internal/online"
	"intellitag/internal/serving"
	"intellitag/internal/snapshot"
	"intellitag/internal/store"
)

// dailySample fully verifies every dailySample-th turn of a measured day;
// the others are checked for status and well-formed JSON only, since the
// served model changes under the client at every refresh.
const dailySample = 16

// window is one learner round's slice of the log.
type window struct {
	from   int64 // learner cursor before the round
	events int
	child  snapshot.Manifest
}

// dailyRun is the write side of daily_refresh: the online learner over the
// live log, and the refresh that fine-tunes, commits, loads and rolls each
// child across the replicas.
type dailyRun struct {
	rep     *report
	rig     *worldRig
	learner *online.Learner
	lcfg    online.LearnerConfig
	active  string
	windows []window
	times   []float64
	tr      *tracer
}

// refresh runs one learner round and deploys its child.
func (d *dailyRun) refresh() error {
	parent := d.active
	from := d.learner.Cursor()
	logLen := int64(d.rig.log.Len())
	start := time.Now()
	res, err := d.learner.Step(parent)
	if err != nil {
		return fmt.Errorf("learner round from cursor %d: %w", from, err)
	}
	stepped := time.Now()
	child := res.Manifest
	if child.Parent != parent || res.Parent != parent {
		d.rep.checkf("child %s has parent %s, the active version was %s", child.ID, child.Parent, parent)
	}
	if c := d.learner.Cursor(); c < logLen || c > int64(d.rig.log.Len()) || c != from+int64(res.Events) {
		d.rep.checkf("learner cursor %d after a round over %d events from %d; log held %d at the round's start", c, res.Events, from, logLen)
	}
	if err := d.rig.snaps.Verify(child.ID); err != nil {
		d.rep.checkf("child %s fails verification: %v", child.ID, err)
	}
	b, err := d.rig.load(child.ID)
	if err != nil {
		return err
	}
	loaded := time.Now()
	d.rig.rs.RollingSwap(b, 0)
	end := time.Now()
	d.rep.check(checkReplicaVersions(d.rig.rs.Versions(), child.ID))
	d.active = child.ID
	d.windows = append(d.windows, window{from: from, events: res.Events, child: child})
	d.times = append(d.times, end.Sub(start).Seconds())
	if tr := d.tr; tr != nil {
		tr.add("online.round_s", stepped.Sub(start).Seconds())
		tr.add("online.sessions_per_round", float64(len(res.Sessions)))
		tr.addDur("snapshot.load_ms", loaded.Sub(stepped), time.Millisecond)
		tr.addDur("serving.swap_ms", end.Sub(loaded), time.Millisecond)
		if n, err := versionBytes(d.rig.snaps, child.ID); err == nil {
			tr.add("snapshot.version_bytes", float64(n))
		}
	}
	return nil
}

// replayFirstWindow replays the first round's window twice through fresh
// learners with the same seed, cursor and parent. Both children, and the
// live round's child, must carry identical component digests: fine-tuning is
// a pure function of (log, seed, parent).
func (d *dailyRun) replayFirstWindow(base string) error {
	w := d.windows[0]
	events, _ := d.rig.log.EventsSince(0)
	var digests [3][]snapshot.Component
	digests[0] = w.child.Components
	for i := 1; i < 3; i++ {
		replay := store.NewLog()
		for _, e := range events[:w.from+int64(w.events)] {
			replay.Append(e)
		}
		l := online.NewLearner(replay, d.rig.snaps, d.rig.mcfg, d.lcfg, w.from)
		res, err := l.Step(base)
		if err != nil {
			return fmt.Errorf("replay of the first window: %w", err)
		}
		digests[i] = res.Manifest.Components
	}
	d.rep.check(checkSameDigests(digests[0], digests[1]))
	d.rep.check(checkSameDigests(digests[1], digests[2]))
	return nil
}

// checkSameDigests verifies that two versions hold byte-identical
// components.
func checkSameDigests(a, b []snapshot.Component) error {
	if len(a) != len(b) {
		return fmt.Errorf("replayed round committed %d components, the original %d", len(b), len(a))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].SHA256 != b[i].SHA256 {
			return fmt.Errorf("replayed round's %s digest %.12s differs from %.12s", b[i].Name, b[i].SHA256, a[i].SHA256)
		}
	}
	return nil
}

// probeFineTune times, on one window of a live log, a fine-tune of the base
// version alone and the commit of its child.
func probeFineTune(tr *tracer, rig *worldRig, lcfg online.LearnerConfig, window []store.Event) error {
	start := time.Now()
	m, g, err := core.LoadSnapshotVersion(rig.snaps, rig.base, rig.mcfg)
	if err != nil {
		return err
	}
	tr.addDur("snapshot.load_ms", time.Since(start), time.Millisecond)
	ft := lcfg.FineTune
	ft.Seed = lcfg.Seed
	start = time.Now()
	if _, err := core.FineTune(m, online.SessionsFromEvents(window), ft); err != nil {
		return err
	}
	tr.add("core.finetune_s", time.Since(start).Seconds())
	start = time.Now()
	if _, err := core.CommitChildSnapshot(rig.snaps, m, g, rig.base); err != nil {
		return err
	}
	tr.addDur("snapshot.commit_ms", time.Since(start), time.Millisecond)
	return nil
}

// learnerConfig is the online learner of daily_refresh.
func learnerConfig() online.LearnerConfig {
	lcfg := online.DefaultLearnerConfig()
	lcfg.MinSessions = 1
	// One core fine-tunes while the client serves on the other.
	lcfg.FineTune.Workers = 1
	return lcfg
}

// runDailyRefresh is the daily_refresh workload: days of sessions served on
// the default world while, after each day, the online learner fine-tunes a
// child version on the day's window and a second goroutine commits, loads
// and rolls it across the replicas as the next day is served.
func runDailyRefresh(o options) (*report, error) {
	sc := o.scale
	rep := newReport(o.workload)
	rig, setups, err := repeatSetup(o, func(dir string) (*worldRig, error) {
		// The traced run trains the Q&A matcher only to time it on the
		// sessions' questions; no daily_refresh turn asks.
		return setupWorld(sc, dir, o.trace)
	})
	if err != nil {
		return nil, err
	}
	ref, _, err := core.LoadSnapshotVersion(rig.snaps, rig.base, rig.mcfg)
	if err != nil {
		return nil, fmt.Errorf("load reference model: %w", err)
	}
	lcfg := learnerConfig()
	d := &dailyRun{rep: rep, rig: rig, lcfg: lcfg, active: rig.base,
		learner: online.NewLearner(rig.log, rig.snaps, rig.mcfg, lcfg, 0)}

	p := worldPlan(rig.world, sc.dailySessions, o.seed, false)
	p.encode()
	run := newRunner(o, rep, p, newClient(rig.srv))
	chk := newWorldChecker(rep, rig, ref)
	exact := true
	run.verify = func(i int) { chk.verify(i, &p.turns[i], run.c.w.body.Bytes(), exact) }
	run.reference(false)
	exact = false
	run.sampleEvery = dailySample

	if o.trace {
		// The engine-level replay goes to a twin replica set without a log,
		// so the learner's windows hold the HTTP turns' clicks alone.
		twinModel, _, err := core.LoadSnapshotVersion(rig.snaps, rig.base, rig.mcfg)
		if err != nil {
			return nil, err
		}
		twin := serving.NewReplicaSet(rig.bundle(twinModel, rig.base), replicas, 0, nil, nil)
		twin.SetRetrieval(serverRetrieval())
		d.tr = newTracer(serving.NewReplicatedABRouter(twin), rig.log, append(rig.rs.Engines(), twin.Engines()...))
		d.tr.ly = worldLayers(d.tr.add, rig, ref)
		run.tr = d.tr
	}

	next := make(chan struct{})
	done := make(chan error)
	go func() {
		for range next {
			done <- d.refresh()
		}
		close(done)
	}()
	// A day's window runs from its first turn to the end of the client's
	// wait for the refresh still running at its end, so it holds the refresh
	// work that overlapped it; its serving time, which turns_per_s divides
	// by, excludes the wait.
	days := run.rounds(dailyDay)
	pending := false
	var loopErr error
	for day := 1; day <= days && loopErr == nil; day++ {
		run.m.start()
		run.round(day)
		if pending {
			wait := time.Now()
			loopErr = <-done
			run.m.waited += time.Since(wait)
			pending = false
		}
		run.m.stop()
		if loopErr == nil && day < days {
			next <- struct{}{}
			pending = true
		}
	}
	close(next)
	for range done { // the refresh goroutine has exited once done is closed
	}
	if loopErr != nil {
		return nil, loopErr
	}
	// A last round with traffic stopped must drain the log to its end.
	if err := d.refresh(); err != nil {
		return nil, err
	}
	if c, n := d.learner.Cursor(), int64(rig.log.Len()); c != n {
		rep.checkf("learner cursor %d after the final round, log holds %d events", c, n)
	}

	issued := map[int][]int{}
	for r := 0; r <= days; r++ {
		for _, t := range p.turns {
			if t.kind == click {
				issued[p.sid(r, t.local)] = t.history
			}
		}
	}
	events, _ := rig.log.EventsSince(0)
	rep.check(checkLoggedClicks(events, issued))
	if err := d.replayFirstWindow(rig.base); err != nil {
		return nil, err
	}

	logPaths(rig.rs.Engines())
	if d.tr != nil {
		w := d.windows[0]
		if err := probeFineTune(d.tr, rig, lcfg, events[w.from:w.from+int64(w.events)]); err != nil {
			return nil, err
		}
		d.tr.finish(rep)
		return rep, nil
	}
	windows := run.m.windows
	// Only the served system and its learner stay reachable for
	// heap_retained_mib.
	run, p, chk, issued, events = nil, nil, nil, nil, nil
	rep.endToEnd(windows, setups, d.times, []any{rig, d.learner})
	return rep, nil
}
