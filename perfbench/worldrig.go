package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"intellitag/internal/core"
	"intellitag/internal/hetgraph"
	"intellitag/internal/mat"
	"intellitag/internal/obs"
	"intellitag/internal/qamatch"
	"intellitag/internal/search"
	"intellitag/internal/serving"
	"intellitag/internal/snapshot"
	"intellitag/internal/store"
	"intellitag/internal/synth"
)

// scale sizes the workloads. fullScale is the benchmark; the self-test runs
// toyScale.
type scale struct {
	world           synth.Config
	supportSessions int // sessions per support_sessions round
	dailySessions   int // sessions per daily_refresh day
	largeTags       int
	largeSessions   int
}

var fullScale = scale{
	world:           synth.DefaultConfig(),
	supportSessions: 1000,
	dailySessions:   256,
	largeTags:       50000,
	largeSessions:   3000,
}

const (
	replicas  = 2 // engine replicas of every workload's replica set
	setupReps = 3 // set-ups per untraced run; setup_s is their median

	// Epochs of TagRec's sequence-only and joint phases, each, and of the
	// Q&A matcher: fewer than intellitag-server's, so that three set-ups fit
	// in a run.
	trainEpochs   = 1
	matcherEpochs = 1

	// Nominal times of one round on the reference machine (runner.rounds).
	supportRound = 600 * time.Millisecond
	largeRound   = 1600 * time.Millisecond
	dailyDay     = 500 * time.Millisecond // a day and its refresh wait

	largeTenants = 4
	// recallFloor is the least mean recall@10 of large_catalog's ANN-served
	// lists against a brute-force dot-product scan (README.md says why it
	// sits where it does).
	recallFloor = 0.65
)

// worldRig is the default synthetic world served the way intellitag-server
// serves it: a trained TagRec model (and, for support_sessions, the Q&A
// matcher) behind a replica set, an A/B router of one bucket and a
// telemetry-enabled HTTP server, with the startup model committed to a
// snapshot store.
type worldRig struct {
	world   *synth.World
	train   []synth.Session
	graph   *hetgraph.Graph
	mcfg    core.Config
	model   *core.Model
	catalog serving.Catalog
	index   *search.Index
	matcher serving.QuestionMatcher
	snaps   *snapshot.Store
	base    string // committed startup version
	log     *store.Log
	rs      *serving.ReplicaSet
	router  *serving.ABRouter
	srv     *serving.Server

	trainTime    time.Duration
	trainSeqs    int // sequence passes over training sessions
	commitTime   time.Duration
	versionBytes int64
}

// setupWorld builds a worldRig in dir. withMatcher trains and serves the
// Q&A matcher.
func setupWorld(sc scale, dir string, withMatcher bool) (*worldRig, error) {
	r := &worldRig{}
	r.world = synth.Generate(sc.world)
	r.train, _, _ = r.world.SplitSessions(0.9, 0.05)
	r.graph = r.world.BuildGraph(r.train)

	r.mcfg = core.DefaultConfig()
	r.mcfg.Dim, r.mcfg.Heads = 16, 2 // intellitag-server's default (-fast) model
	r.model = core.Build(r.mcfg, r.graph, nil)
	tc := core.DefaultTrainConfig()
	tc.Epochs, tc.JointEpochs = trainEpochs, trainEpochs
	clicks := make([][]int, len(r.train))
	for i, s := range r.train {
		clicks[i] = s.Clicks
	}
	start := time.Now()
	core.TrainFull(r.model, r.graph, clicks, tc)
	r.model.Freeze()
	r.trainTime = time.Since(start)
	r.trainSeqs = len(clicks) * (tc.Epochs + tc.JointEpochs)

	r.catalog, r.index = serving.BuildCatalog(r.world, r.train)
	if withMatcher {
		rng := mat.NewRNG(sc.world.Seed + 7)
		pairs := make([]qamatch.Pair, len(r.world.RQs))
		ids := make([]int, len(r.world.RQs))
		texts := make([]string, len(r.world.RQs))
		for i, rq := range r.world.RQs {
			pairs[i] = qamatch.Pair{Question: r.world.Paraphrase(rq.ID, rng), RQ: rq.Text, Tenant: rq.Tenant}
			ids[i], texts[i] = rq.ID, rq.Text
		}
		qm := qamatch.NewMatcher(qamatch.DefaultConfig(), qamatch.BuildVocab(pairs))
		qtc := qamatch.DefaultTrainConfig()
		qtc.Epochs = matcherEpochs
		qamatch.Train(qm, pairs, qtc)
		r.matcher = qm.BuildIndex(ids, texts)
	}

	var err error
	if r.snaps, err = snapshot.Open(dir); err != nil {
		return nil, err
	}
	start = time.Now()
	man, err := core.CommitSnapshot(r.snaps, r.model, r.graph)
	if err != nil {
		return nil, fmt.Errorf("commit startup snapshot: %w", err)
	}
	r.commitTime = time.Since(start)
	r.base = man.ID
	if r.versionBytes, err = versionBytes(r.snaps, man.ID); err != nil {
		return nil, err
	}

	r.log = store.NewLog()
	r.rs = serving.NewReplicaSet(r.bundle(r.model, man.ID), replicas, 0, r.log, nil)
	r.rs.SetRetrieval(serverRetrieval())
	r.router = serving.NewReplicatedABRouter(r.rs)
	r.srv = serving.NewServer(r.router)
	r.srv.EnableTelemetry(obs.NewRegistry(), obs.NewTracer(64, 256))
	return r, nil
}

// serverRetrieval is intellitag-server's default retrieval configuration.
func serverRetrieval() serving.RetrievalConfig {
	return serving.RetrievalConfig{Enabled: true, K: 64, Backend: "hnsw", MinCatalog: 256, RecallSample: 64}
}

func (r *worldRig) bundle(m *core.Model, id string) *serving.ModelBundle {
	return &serving.ModelBundle{VersionID: id, Catalog: r.catalog, Index: r.index, Scorer: m, Matcher: r.matcher}
}

// load reads a committed version into a fresh serving bundle.
func (r *worldRig) load(id string) (*serving.ModelBundle, error) {
	m, _, err := core.LoadSnapshotVersion(r.snaps, id, r.mcfg)
	if err != nil {
		return nil, err
	}
	return r.bundle(m, id), nil
}

// versionBytes is the on-disk size of a committed version.
func versionBytes(s *snapshot.Store, id string) (int64, error) {
	man, err := s.Get(id)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, c := range man.Components {
		n += c.Size
	}
	return n, nil
}

// repeatSetup runs setup setupReps times (once in a traced run) in fresh
// subdirectories of o.workDir, keeping the last rig, and returns each
// set-up's wall time in seconds.
func repeatSetup[T any](o options, setup func(dir string) (T, error)) (T, []float64, error) {
	reps := setupReps
	if o.trace {
		reps = 1
	}
	var rig T
	var times []float64
	for i := 0; i < reps; i++ {
		sub := filepath.Join(o.workDir, fmt.Sprintf("setup-%d", i))
		start := time.Now()
		r, err := setup(sub)
		if err != nil {
			return rig, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		rig = r
		if i > 0 {
			_ = os.RemoveAll(filepath.Join(o.workDir, fmt.Sprintf("setup-%d", i-1))) // the discarded set-up's snapshots
		}
		// Collect the discarded set-up before the next one, so that peak
		// RSS holds one set-up, as a server's does, rather than depending on
		// when the collector happened to run between repeats.
		runtime.GC()
	}
	fmt.Fprintf(os.Stderr, "set-up times (s): %.3f\n", times)
	return rig, times, nil
}
