package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"time"

	"intellitag/internal/ann"
	"intellitag/internal/mat"
	"intellitag/internal/obs"
	"intellitag/internal/search"
	"intellitag/internal/serving"
	"intellitag/internal/snapshot"
	"intellitag/internal/store"
	"intellitag/internal/synth"
)

// largeK is the list length of large_catalog turns (recall@10).
const largeK = 10

// recallEvery samples the reference round's click turns for the recall
// check: a brute-force scan of a 12 500-tag catalog per click would double
// the round's cost.
const recallEvery = 3

// dotScorer is the frozen-embedding scorer of cmd/annbench: it ranks
// candidates by their dot product with the sum of the last historyWindow
// clicked tags' embeddings and exposes the table for ANN retrieval.
type dotScorer struct{ emb *mat.Matrix }

func (s dotScorer) ScoreCandidates(history, candidates []int) []float64 {
	q := centroidSum(s.emb, history)
	out := make([]float64, len(candidates))
	for i, c := range candidates {
		out[i] = mat.Dot(q, s.emb.Row(c))
	}
	return out
}

func (s dotScorer) Name() string               { return "dot" }
func (s dotScorer) TagEmbeddings() *mat.Matrix { return s.emb }

// largeRig is a clustered embedding table split into tenant catalogs that
// follow the clusters, served with the serving-default retrieval config.
type largeRig struct {
	vecs     *mat.Matrix
	clusters int
	catalog  serving.Catalog
	snaps    *snapshot.Store
	log      *store.Log
	rs       *serving.ReplicaSet
	router   *serving.ABRouter
	srv      *serving.Server

	commitTime time.Duration // the snapshot store's commit of the encoded table
	tableBytes int64
}

// tableComponent is the snapshot component holding the embedding table.
const tableComponent = "table.f64"

// encodeTable is the snapshot payload of an embedding table: rows and
// columns, then the float64 entries, all little-endian.
func encodeTable(vecs *mat.Matrix) []byte {
	payload := binary.LittleEndian.AppendUint32(nil, uint32(vecs.Rows))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(vecs.Cols))
	for _, x := range vecs.Data {
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(x))
	}
	return payload
}

// commitTable commits an encoded table as a new snapshot version: the
// offline side's upload of a new model.
func (r *largeRig) commitTable(payload []byte) (snapshot.Manifest, error) {
	w, err := r.snaps.Begin()
	if err != nil {
		return snapshot.Manifest{}, err
	}
	if err := w.WriteComponent(tableComponent, payload); err != nil {
		w.Abort()
		return snapshot.Manifest{}, err
	}
	return w.Commit()
}

// readTable verifies a committed table and reads its payload.
func (r *largeRig) readTable(id string) ([]byte, error) {
	if err := r.snaps.Verify(id); err != nil {
		return nil, err
	}
	path, err := r.snaps.Path(id, tableComponent)
	if err != nil {
		return nil, err
	}
	return snapshot.ReadChecksummed(path)
}

// decodeTable is the inverse of encodeTable.
func decodeTable(payload []byte) (*mat.Matrix, error) {
	if len(payload) < 8 {
		return nil, fmt.Errorf("table: short payload")
	}
	rows := int(binary.LittleEndian.Uint32(payload))
	cols := int(binary.LittleEndian.Uint32(payload[4:]))
	payload = payload[8:]
	if len(payload) != 8*rows*cols {
		return nil, fmt.Errorf("table: %d bytes for %dx%d", len(payload), rows, cols)
	}
	m := mat.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
	}
	return m, nil
}

// clusterSpan returns the rows [lo, hi) of cluster c (synth.TagVecs keeps a
// cluster's rows contiguous, the first n%clusters clusters one row larger).
func clusterSpan(n, clusters, c int) (lo, hi int) {
	per, extra := n/clusters, n%clusters
	lo = c*per + min(c, extra)
	hi = lo + per
	if c < extra {
		hi++
	}
	return lo, hi
}

func setupLarge(sc scale, dir string) (*largeRig, error) {
	n := sc.largeTags
	r := &largeRig{clusters: n / 100}
	r.vecs = synth.TagVecs(n, 32, r.clusters, 0.08, 61)
	r.catalog = serving.Catalog{
		TagPhrases: make([]string, n),
		TenantTags: map[int][]int{},
		Popularity: make([]float64, n),
		RQAnswers:  map[int]string{},
	}
	for i := 0; i < n; i++ {
		r.catalog.TagPhrases[i] = "tag-" + strconv.Itoa(i)
		r.catalog.Popularity[i] = float64(n - i)
	}
	for c := 0; c < r.clusters; c++ {
		lo, hi := clusterSpan(n, r.clusters, c)
		t := c % largeTenants
		for id := lo; id < hi; id++ {
			r.catalog.TenantTags[t] = append(r.catalog.TenantTags[t], id)
		}
	}
	var err error
	if r.snaps, err = snapshot.Open(dir); err != nil {
		return nil, err
	}
	payload := encodeTable(r.vecs)
	start := time.Now()
	man, err := r.commitTable(payload)
	if err != nil {
		return nil, fmt.Errorf("commit table: %w", err)
	}
	r.commitTime = time.Since(start)
	if r.tableBytes, err = versionBytes(r.snaps, man.ID); err != nil {
		return nil, err
	}
	r.log = store.NewLog()
	r.rs = serving.NewReplicaSet(r.bundle(r.vecs, man.ID), replicas, 0, r.log, nil)
	r.rs.SetRetrieval(serving.DefaultRetrievalConfig())
	r.router = serving.NewReplicatedABRouter(r.rs)
	r.srv = serving.NewServer(r.router)
	r.srv.EnableTelemetry(obs.NewRegistry(), obs.NewTracer(64, 256))
	return r, nil
}

func (r *largeRig) bundle(vecs *mat.Matrix, id string) *serving.ModelBundle {
	return &serving.ModelBundle{VersionID: id, Catalog: r.catalog, Index: search.NewIndex(), Scorer: dotScorer{emb: vecs}}
}

// largePlan draws n sessions: a tenant (every tenant equally often), a
// geometric length of mean 3 capped at 8 (see mix.go), a starting cluster of
// the tenant, then clicks of which a quarter move to another of the tenant's
// clusters and the rest stay in the current one. Each click is a /click followed by a
// /recommend; there is no cold start, so every ranking has a history.
func largePlan(r *largeRig, sc scale, n int, seed int64) *plan {
	rng := mat.NewRNG(seed)
	p := &plan{sessions: n}
	per := r.clusters / largeTenants
	even := make([]float64, largeTenants)
	for i := range even {
		even[i] = 1
	}
	tenants := sessionTenants(even, n, rng)
	lengths := sessionLengths(3, 8, n, rng)
	// Exactly a quarter of the follow-up clicks move to another cluster.
	moves := 0
	for _, l := range lengths {
		moves += l - 1
	}
	move := make([]int, moves)
	for i := 0; i < moves/4; i++ {
		move[i] = 1
	}
	shuffle(move, rng)
	for s := 0; s < n; s++ {
		tenant := tenants[s]
		cluster := tenant + largeTenants*rng.Intn(per)
		length := lengths[s]
		var clicks []int
		for i := 0; i < length; i++ {
			if i > 0 {
				if move[0] == 1 {
					cluster = tenant + largeTenants*rng.Intn(per)
				}
				move = move[1:]
			}
			lo, hi := clusterSpan(sc.largeTags, r.clusters, cluster)
			clicks = append(clicks, lo+rng.Intn(hi-lo))
			h := clicks[: i+1 : i+1]
			p.turns = append(p.turns,
				turn{kind: click, tenant: tenant, local: s, tag: clicks[i], k: largeK, history: h},
				turn{kind: recMemo, tenant: tenant, local: s, k: largeK, history: h})
		}
		last := &p.turns[len(p.turns)-1]
		last.last = true
		last.question = "how do i use " + r.catalog.TagPhrases[clicks[len(clicks)-1]]
	}
	return p
}

// runLargeCatalog is the large_catalog workload: ANN retrieval and int8
// rescoring on a 5·10^4-tag table; each refresh loads a newly committed
// version of the table and hands it to the replica set, which rebuilds the
// ANN index.
func runLargeCatalog(o options) (*report, error) {
	sc := o.scale
	rep := newReport(o.workload)
	rig, setups, err := repeatSetup(o, func(dir string) (*largeRig, error) { return setupLarge(sc, dir) })
	if err != nil {
		return nil, err
	}
	p := largePlan(rig, sc, sc.largeSessions, o.seed)
	p.encode()
	run := newRunner(o, rep, p, newClient(rig.srv))

	members := map[int]map[int]bool{}
	for t, tags := range rig.catalog.TenantTags {
		members[t] = map[int]bool{}
		for _, tag := range tags {
			members[t][tag] = true
		}
	}
	var last []respTag
	recallSum, recallN := 0.0, 0
	before := engineStats(rig.rs.Engines())
	run.verify = func(i int) {
		t := &p.turns[i]
		at := func(err error) {
			if err != nil {
				rep.check(fmt.Errorf("turn %d (%s): %w", i, routes[t.kind], err))
			}
		}
		r, err := decodeTags(run.c.w.body.Bytes())
		if err != nil {
			at(err)
			return
		}
		at(checkRanking(r.Tags, members[t.tenant], rig.catalog.TagPhrases, t.k))
		if t.kind == recMemo {
			at(checkSameTags(r.Tags, last))
			return
		}
		if len(r.Questions) != 0 {
			at(fmt.Errorf("%d predicted questions from an empty RQ index", len(r.Questions)))
		}
		if i%recallEvery == 0 {
			q := centroidSum(rig.vecs, t.history)
			recallSum += overlap(r.Tags, bruteDot(rig.vecs, q, rig.catalog.TenantTags[t.tenant], t.k))
			recallN++
		}
		last = append(last[:0], r.Tags...)
	}
	run.reference(true)
	run.verify = nil
	rep.check(checkRecall(recallSum, recallN, recallFloor))
	st := engineStats(rig.rs.Engines())
	if ann, comp := st.ANN-before.ANN, computations(st)-computations(before); float64(ann) < 0.95*float64(comp) {
		rep.checkf("ANN path served %d of %d rankings, want at least 95%%", ann, comp)
	}

	var tr *tracer
	if o.trace {
		tr = newTracer(rig.router, rig.log, rig.rs.Engines())
		start := time.Now()
		g := ann.BuildGraph(rig.vecs, ann.DefaultGraphConfig())
		tr.add("ann.build_s", time.Since(start).Seconds())
		tr.addDur("snapshot.commit_ms", rig.commitTime, time.Millisecond)
		tr.add("snapshot.version_bytes", float64(rig.tableBytes))
		def := serving.DefaultRetrievalConfig()
		tr.ly = layers{index: search.NewIndex(), phrases: rig.catalog.TagPhrases, members: rig.catalog.TenantTags,
			scorer: dotScorer{emb: rig.vecs}, vecs: rig.vecs, ann: g, annK: def.K, minCatalog: def.MinCatalog}
		run.tr = tr
	}

	// Each refresh starts with a new committed version of the table in hand
	// and ends when every replica serves it: read, decode, index build, swap.
	var refreshes []float64
	refresh := func() error {
		man, err := rig.commitTable(encodeTable(rig.vecs))
		if err != nil {
			return err
		}
		start := time.Now()
		payload, err := rig.readTable(man.ID)
		if err != nil {
			return err
		}
		read := time.Now()
		vecs, err := decodeTable(payload)
		if err != nil {
			return err
		}
		decoded := time.Now()
		rig.rs.RollingSwap(rig.bundle(vecs, man.ID), 0)
		end := time.Now()
		refreshes = append(refreshes, end.Sub(start).Seconds())
		rep.check(checkReplicaVersions(rig.rs.Versions(), man.ID))
		if tr != nil {
			tr.addDur("snapshot.load_ms", read.Sub(start), time.Millisecond)
			tr.addDur("serving.swap_ms", end.Sub(decoded), time.Millisecond)
		}
		return nil
	}
	if err := run.serveWithRefreshes(run.rounds(largeRound), []float64{0.5}, refresh); err != nil {
		return nil, err
	}
	logPaths(rig.rs.Engines())
	if tr != nil {
		tr.finish(rep)
		return rep, nil
	}
	windows := run.m.windows
	run, p, members, last = nil, nil, nil, nil // only the served system stays reachable for heap_retained_mib
	rep.endToEnd(windows, setups, refreshes, rig)
	return rep, nil
}
