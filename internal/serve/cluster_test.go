package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gpp/internal/cluster"
	"gpp/internal/gen"
	"gpp/internal/store"
)

// clusterNode is one in-process cluster member: a Server behind a real
// TCP listener whose address was known before the Server was built (the
// membership config needs every URL up front).
type clusterNode struct {
	s   *Server
	url string
	hs  *http.Server
}

// newServeCluster boots n cluster members on loopback. mut tweaks each
// node's config after the cluster defaults are filled in.
func newServeCluster(t *testing.T, n int, mut func(i int, cfg *Config)) []*clusterNode {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*clusterNode, n)
	for i := range urls {
		peers := make([]string, 0, n-1)
		for k, u := range urls {
			if k != i {
				peers = append(peers, u)
			}
		}
		cfg := Config{
			Workers:    1,
			QueueDepth: 16,
			Cluster: &cluster.Config{
				Self:           urls[i],
				Peers:          peers,
				HeartbeatEvery: 20 * time.Millisecond,
				StealEvery:     20 * time.Millisecond,
				StealLease:     10 * time.Second,
				PeerTimeout:    2 * time.Second,
			},
		}
		if mut != nil {
			mut(i, &cfg)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: s}
		ln := lns[i]
		go func() { _ = hs.Serve(ln) }()
		nodes[i] = &clusterNode{s: s, url: urls[i], hs: hs}
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			_ = nd.hs.Close()
			ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
			_ = nd.s.Shutdown(ctx)
			cancel()
		}
	})
	return nodes
}

// waitPeersAlive blocks until every node's heartbeats have seen every
// other node, so routing decisions in the test body are deterministic.
func waitPeersAlive(t *testing.T, nodes []*clusterNode) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, nd := range nodes {
		for nd.s.cluster.PeersAlive() < len(nodes)-1 {
			if time.Now().After(deadline) {
				t.Fatalf("node %s never saw all peers alive", nd.url)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// postJobLocal submits with the forwarded marker set, pinning the job to
// the receiving node regardless of ring ownership — how tests place work
// on a specific member.
func postJobLocal(t *testing.T, base string, req JobRequest) (int, statusBody) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(cluster.ForwardedHeader, "test")
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var sb statusBody
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, &sb); err != nil {
			t.Fatalf("bad submit response %q: %v", raw, err)
		}
	}
	return resp.StatusCode, sb
}

// TestClusterRoutesSubmissionToOwner: any node accepts a submission, but
// the job runs (and its result lives) on the ring owner of its cache key;
// a repeat submission through a different non-owner is a cache hit served
// by the same owner, byte-identical.
func TestClusterRoutesSubmissionToOwner(t *testing.T) {
	nodes := newServeCluster(t, 3, nil)
	waitPeersAlive(t, nodes)

	req := fastReq(9001)
	code, sb, hdr := postJob(t, nodes[0].url, req)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit = %d, want 202 or 200", code)
	}
	ownerURL := hdr.Get(cluster.RoutedHeader)
	if ownerURL == "" {
		ownerURL = nodes[0].url // node 0 owned the key itself
	}
	// Every node's ring must agree with where the job actually went.
	for _, nd := range nodes {
		if o, _ := nd.s.cluster.Owner(sb.Key); o != ownerURL {
			t.Fatalf("node %s says owner(%s) = %s, but the job went to %s",
				nd.url, sb.Key, o, ownerURL)
		}
	}
	done := waitTerminal(t, ownerURL, sb.ID)
	if done.Status != StatusDone {
		t.Fatalf("routed job ended %s: %s", done.Status, done.Error)
	}
	cold := getBody(t, ownerURL, "/v1/jobs/"+sb.ID+"/result", http.StatusOK)

	// The job must exist only on its owner.
	for _, nd := range nodes {
		if nd.url != ownerURL {
			getBody(t, nd.url, "/v1/jobs/"+sb.ID, http.StatusNotFound)
		}
	}

	// Re-submit through a non-owner: forwarded again, answered as a cache
	// hit with the exact same bytes.
	var nonOwner string
	for _, nd := range nodes {
		if nd.url != ownerURL {
			nonOwner = nd.url
			break
		}
	}
	code2, sb2, hdr2 := postJob(t, nonOwner, req)
	if got := hdr2.Get(cluster.RoutedHeader); got != ownerURL {
		t.Fatalf("non-owner submit routed to %q, want %q", got, ownerURL)
	}
	if code2 != http.StatusOK || sb2.Cache != "hit" {
		t.Fatalf("non-owner resubmit: code=%d cache=%s, want 200/hit", code2, sb2.Cache)
	}
	if !bytes.Equal(sb2.Result, bytes.TrimSpace(cold)) && string(sb2.Result) != string(cold) {
		t.Fatalf("routed cache hit differs from owner's cold solve:\n%s\nvs\n%s", sb2.Result, cold)
	}
}

// TestClusterPeerReadThroughByteIdentity (satellite): a result solved on
// node A and read through by node B is byte-identical to the cold solve,
// and B's disk-persisted copy of the fetched blob survives B's restart.
func TestClusterPeerReadThroughByteIdentity(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir()}
	nodes := newServeCluster(t, 2, func(i int, cfg *Config) { cfg.DataDir = dirs[i] })
	waitPeersAlive(t, nodes)
	a, b := nodes[0], nodes[1]

	req := fastReq(9100)
	_, sbA := postJobLocal(t, a.url, req)
	if done := waitTerminal(t, a.url, sbA.ID); done.Status != StatusDone {
		t.Fatalf("node A solve ended %s: %s", done.Status, done.Error)
	}
	cold := getBody(t, a.url, "/v1/jobs/"+sbA.ID+"/result", http.StatusOK)

	// Same request pinned to node B: local memory+disk miss, then peer
	// read-through finds A's blob before solving.
	peerHits0 := a.s.m.peerCacheHits.Value() + b.s.m.peerCacheHits.Value()
	_, sbB := postJobLocal(t, b.url, req)
	doneB := waitTerminal(t, b.url, sbB.ID)
	if doneB.Status != StatusDone || doneB.Cache != "hit" {
		t.Fatalf("node B job: status=%s cache=%s, want done/hit", doneB.Status, doneB.Cache)
	}
	fetched := getBody(t, b.url, "/v1/jobs/"+sbB.ID+"/result", http.StatusOK)
	if string(fetched) != string(cold) {
		t.Fatalf("peer read-through differs from cold solve:\n%s\nvs\n%s", fetched, cold)
	}
	if d := a.s.m.peerCacheHits.Value() + b.s.m.peerCacheHits.Value() - peerHits0; d != 1 {
		t.Errorf("gpp_cluster_peer_cache_hits_total advanced by %d, want 1", d)
	}

	// Restart node B (standalone is enough: the fetched blob lives in its
	// own store now). The identical request hits from disk, same bytes.
	_ = b.hs.Close()
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := b.s.Shutdown(sctx); err != nil {
		t.Fatalf("node B shutdown: %v", err)
	}
	scancel()
	_, base2 := newTestServer(t, Config{Workers: 1, QueueDepth: 8, DataDir: dirs[1]})
	code, sb2, _ := postJob(t, base2, req)
	if code != http.StatusOK || sb2.Cache != "hit" {
		t.Fatalf("post-restart submit on B: code=%d cache=%s, want 200/hit (disk)", code, sb2.Cache)
	}
	warm := getBody(t, base2, "/v1/jobs/"+sb2.ID+"/result", http.StatusOK)
	if string(warm) != string(cold) {
		t.Fatalf("restarted B serves different bytes:\n%s\nvs\n%s", warm, cold)
	}
}

// TestClusterWorkStealing: jobs queued behind a busy node's worker are
// stolen and completed by an idle peer, finishing under their original
// ids on the owner.
func TestClusterWorkStealing(t *testing.T) {
	nodes := newServeCluster(t, 2, nil)
	waitPeersAlive(t, nodes)
	a, b := nodes[0], nodes[1]

	// Occupy A's single worker indefinitely.
	_, slow := postJobLocal(t, a.url, slowReq(9200))
	waitRunning(t, a.url, slow.ID)

	grants0 := a.s.m.stealGrants.Value() + b.s.m.stealGrants.Value()
	completes0 := a.s.m.stealCompletesIn.Value() + b.s.m.stealCompletesIn.Value()
	var ids []string
	for i := int64(0); i < 4; i++ {
		code, sb := postJobLocal(t, a.url, fastReq(9300+i))
		if code != http.StatusAccepted {
			t.Fatalf("queued submit = %d, want 202", code)
		}
		ids = append(ids, sb.ID)
	}
	// A's worker never frees (the slow job runs for minutes), so every
	// fast job MUST finish via B stealing it.
	for _, id := range ids {
		sb := waitTerminal(t, a.url, id)
		if sb.Status != StatusDone {
			t.Fatalf("stolen job %s ended %s: %s", id, sb.Status, sb.Error)
		}
		getBody(t, a.url, "/v1/jobs/"+id+"/result", http.StatusOK)
	}
	if d := a.s.m.stealGrants.Value() + b.s.m.stealGrants.Value() - grants0; d != 4 {
		t.Errorf("steal grants advanced by %d, want 4", d)
	}
	if d := a.s.m.stealCompletesIn.Value() + b.s.m.stealCompletesIn.Value() - completes0; d != 4 {
		t.Errorf("applied thief completes advanced by %d, want 4", d)
	}
	a.s.stolenMu.Lock()
	outstanding := len(a.s.stolen)
	a.s.stolenMu.Unlock()
	if outstanding != 0 {
		t.Errorf("%d stolen jobs still outstanding after completion", outstanding)
	}
	// B solved them: its cache holds the results (cross-node spread).
	if b.s.cache.len() < 4 {
		t.Errorf("thief cached %d results, want ≥ 4", b.s.cache.len())
	}
	// Free the worker promptly.
	hr, _ := http.NewRequest(http.MethodDelete, a.url+"/v1/jobs/"+slow.ID, nil)
	resp, err := http.DefaultClient.Do(hr)
	if err == nil {
		resp.Body.Close()
	}
}

// deadPeerCluster returns a cluster config whose only peer is unreachable
// — a member in name only, for tests that drive the protocol by hand.
func deadPeerCluster(lease time.Duration) *cluster.Config {
	return &cluster.Config{
		Self:           "127.0.0.1:59990",
		Peers:          []string{"127.0.0.1:9"}, // discard port: refuses instantly
		HeartbeatEvery: time.Hour,
		StealEvery:     time.Hour,
		StealLease:     lease,
		PeerTimeout:    200 * time.Millisecond,
	}
}

// TestClusterStealLeaseReclaim (satellite, thief-dies half): the test
// steals a job and never reports back — the owner's lease expires, the
// job re-enqueues, and it completes exactly once under its original id.
// A late duplicate complete from the "dead" thief is acknowledged and
// ignored.
func TestClusterStealLeaseReclaim(t *testing.T) {
	s, base := newTestServer(t, Config{
		Workers: 1, QueueDepth: 8,
		Cluster: deadPeerCluster(300 * time.Millisecond),
	})

	_, slow, _ := postJob(t, base, slowReq(9400))
	waitRunning(t, base, slow.ID)
	code, fast, _ := postJob(t, base, fastReq(9401))
	if code != http.StatusAccepted {
		t.Fatalf("queued submit = %d, want 202", code)
	}

	// Act as the thief: claim the queued job, then vanish.
	reclaims0 := s.m.reclaims.Value()
	resp, err := http.Post(base+"/v1/cluster/steal", "application/json",
		bytes.NewReader([]byte(`{"thief":"http://127.0.0.1:59991"}`)))
	if err != nil {
		t.Fatal(err)
	}
	grantRaw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("steal = %d (%s), want 200", resp.StatusCode, grantRaw)
	}
	var g stealGrant
	if err := json.Unmarshal(grantRaw, &g); err != nil {
		t.Fatalf("bad grant %q: %v", grantRaw, err)
	}
	if g.ID != fast.ID {
		t.Fatalf("grant id = %s, want %s", g.ID, fast.ID)
	}
	if len(g.Circuit) == 0 || g.Request.K != 4 {
		t.Fatalf("grant missing payload: circuit %d bytes, k=%d", len(g.Circuit), g.Request.K)
	}
	if got := getStatus(t, base, fast.ID); got.Status != StatusRunning {
		t.Fatalf("stolen job status = %s, want running", got.Status)
	}

	// Lease expires → reclaim re-enqueues. The worker is still occupied,
	// so free it once the reclaim is observed.
	deadline := time.Now().Add(5 * time.Second)
	for s.m.reclaims.Value() == reclaims0 {
		if time.Now().After(deadline) {
			t.Fatal("lease reclaim never happened")
		}
		time.Sleep(10 * time.Millisecond)
	}
	hr, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+slow.ID, nil)
	if resp, err := http.DefaultClient.Do(hr); err == nil {
		resp.Body.Close()
	}
	sb := waitTerminal(t, base, fast.ID)
	if sb.Status != StatusDone {
		t.Fatalf("reclaimed job ended %s: %s", sb.Status, sb.Error)
	}
	real := getBody(t, base, "/v1/jobs/"+fast.ID+"/result", http.StatusOK)

	// The thief comes back from the dead with a bogus result: exactly-once
	// means it is acknowledged but changes nothing.
	late, err := json.Marshal(&completeDoc{
		ID: fast.ID, Status: StatusDone,
		Labels: []int{0}, Body: json.RawMessage(`{"bogus":true}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Post(base+"/v1/cluster/complete", "application/json", bytes.NewReader(late))
	if err != nil {
		t.Fatal(err)
	}
	ack, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || !bytes.Contains(ack, []byte("ignored")) {
		t.Fatalf("late complete = %d %s, want 200 ignored", resp2.StatusCode, ack)
	}
	after := getBody(t, base, "/v1/jobs/"+fast.ID+"/result", http.StatusOK)
	if string(after) != string(real) {
		t.Fatalf("late duplicate complete overwrote the result:\n%s\nvs\n%s", after, real)
	}
	_ = s
}

// TestClusterOwnerCrashMidHandoffReplays (satellite, owner-dies half): a
// journal holding an accept plus a handoff — the state a node killed
// right after granting a steal leaves behind — replays the job at boot
// and finishes it exactly once; the thief's late complete into the
// restarted owner is ignored.
func TestClusterOwnerCrashMidHandoffReplays(t *testing.T) {
	dir := t.TempDir()
	circuit, err := gen.Benchmark("KSA8", nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	circJSON, err := json.Marshal(circuit)
	if err != nil {
		t.Fatal(err)
	}
	blobKey, err := st.Blobs.Put(circJSON)
	if err != nil {
		t.Fatal(err)
	}
	jnl, _, err := store.OpenJournal(st.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	const jobID = "deadbeefcafe0001"
	data, err := json.Marshal(&journaledJob{
		ID: jobID, CircuitBlob: blobKey, CircuitName: circuit.Name,
		K: 4, Options: &JobOptions{Seed: 9500, MaxIters: 300},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jnl.Append(store.Record{Op: "accept", ID: jobID, Data: data}); err != nil {
		t.Fatal(err)
	}
	if _, err := jnl.Append(store.Record{Op: "handoff", ID: jobID,
		Data: []byte(`{"thief":"http://127.0.0.1:59992"}`)}); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{
		Workers: 1, QueueDepth: 8, DataDir: dir,
		Cluster: deadPeerCluster(10 * time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s)
	base := hs.URL
	if got := s.m.jobsRecovered.Value(); got != 1 {
		t.Fatalf("recovered %d jobs at boot, want 1 (handoff must not terminate the accept)", got)
	}
	sb := waitTerminal(t, base, jobID)
	if sb.Status != StatusDone {
		t.Fatalf("replayed job ended %s: %s", sb.Status, sb.Error)
	}
	real := getBody(t, base, "/v1/jobs/"+jobID+"/result", http.StatusOK)

	// Thief posts its (identical-by-determinism, here deliberately bogus)
	// result after the replay already finished: ignored.
	late, err := json.Marshal(&completeDoc{
		ID: jobID, Status: StatusDone,
		Labels: []int{0}, Body: json.RawMessage(`{"bogus":true}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/cluster/complete", "application/json", bytes.NewReader(late))
	if err != nil {
		t.Fatal(err)
	}
	ack, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(ack, []byte("ignored")) {
		t.Fatalf("late complete = %d %s, want 200 ignored", resp.StatusCode, ack)
	}
	if after := getBody(t, base, "/v1/jobs/"+jobID+"/result", http.StatusOK); string(after) != string(real) {
		t.Fatal("late duplicate complete changed the replayed result")
	}

	// Shut down cleanly and audit the journal: the job must have exactly
	// one terminal record — one execution's worth of history.
	hs.Close()
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	scancel()
	jnl2, recs, err := store.OpenJournal(st.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()
	terminals := 0
	for _, rec := range recs {
		if rec.ID != jobID {
			continue
		}
		switch rec.Op {
		case string(StatusDone), string(StatusFailed), string(StatusCancelled):
			terminals++
		}
	}
	if terminals != 1 {
		t.Fatalf("job %s has %d terminal journal records, want exactly 1", jobID, terminals)
	}
}
