package simulation

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"softreputation/internal/client"
	"softreputation/internal/core"
	"softreputation/internal/hostsim"
	"softreputation/internal/replication"
	"softreputation/internal/repo"
	"softreputation/internal/resilience"
	"softreputation/internal/server"
	"softreputation/internal/storedb"
	"softreputation/internal/wire"
)

// TierConfig assembles a Tier. Each field is one that the experiments
// set to different values; what only one experiment needs stays in it.
type TierConfig struct {
	// Seed drives the world, and a schedule's fault plans.
	Seed int64
	// Programs sizes the catalog (60% legitimate, 25% grey zone, one
	// vendor per ten programs) and Users the enrolled population, of
	// which ExpertFrac are experts.
	Programs   int
	Users      int
	ExpertFrac float64
	// VotesPerAgent, when positive, has the population vote and the
	// scores published before NewTier returns.
	VotesPerAgent int
	// Replicas is how many in-memory replica servers tail the primary.
	Replicas int
	// Server configures the primary's server; the tier supplies its
	// store and clock.
	Server server.Config
	// Disk, when set, puts the primary's store on disk in a temporary
	// directory that Close removes; nil keeps it in memory.
	Disk *storedb.Options
}

// Tier is a running deployment: the seeded world as node "p" with its
// WAL publisher mounted, replica servers "r1".."rN" each with its own
// publisher, every node served on a loopback listener that counts its
// bytes, and every link between nodes and clients routed through one
// PartitionNet on the world's virtual clock.
type Tier struct {
	// World is the primary.
	World *World

	net    *resilience.PartitionNet
	nodes  []*tierNode // p, then r1..rN
	disk   *diskNode   // p's store when TierConfig.Disk is set
	seeded int         // votes VotesPerAgent landed
	pair   int         // the vote walk's next (agent, software) pair
	acks   []ack       // every vote the walk saw acked, in order
}

// ack is one acked vote: who rated what.
type ack struct {
	agent    string
	software core.SoftwareID
}

// tierNode is one server of the tier.
type tierNode struct {
	name  string
	srv   *server.Server
	store *repo.Store
	rep   *replication.Replica // nil on p until it is demoted
	ts    *httptest.Server
	// handler is what ts serves: srv's, swapped when p restarts.
	handler atomic.Pointer[http.Handler]
	// in and out count the bytes crossing the node's socket, HTTP
	// headers included.
	in, out atomic.Uint64
}

// NewTier boots a tier.
func NewTier(cfg TierConfig) (*Tier, error) {
	t := &Tier{}
	store := repo.OpenMemory()
	if cfg.Disk != nil {
		d, err := openDisk(*cfg.Disk)
		if err != nil {
			return nil, err
		}
		t.disk, store = d, d.store
	}
	w, err := newWorld(WorldConfig{
		Seed:       cfg.Seed,
		Catalog:    CatalogConfig{Seed: cfg.Seed, Total: cfg.Programs, LegitFrac: 0.6, GreyFrac: 0.25, Vendors: cfg.Programs / 10},
		Population: PopulationConfig{Seed: cfg.Seed + 1, Total: cfg.Users, ExpertFrac: cfg.ExpertFrac},
		Server:     cfg.Server,
	}, store)
	if err != nil {
		if t.disk != nil {
			t.disk.close()
		}
		return nil, err
	}
	t.World = w
	t.net = resilience.NewPartitionNet(w.Clock)
	t.add(&tierNode{name: "p", srv: w.Server, store: w.Store()})
	for i := 1; i <= cfg.Replicas; i++ {
		if err := t.addReplica(fmt.Sprintf("r%d", i)); err != nil {
			t.Close()
			return nil, err
		}
	}
	if cfg.VotesPerAgent > 0 {
		if t.seeded, err = w.SeedVotes(cfg.VotesPerAgent); err == nil {
			err = w.Aggregate()
		}
		if err != nil {
			t.Close()
			return nil, err
		}
	}
	return t, nil
}

// addReplica starts an in-memory replica server tailing p.
func (t *Tier) addReplica(name string) error {
	st := repo.OpenMemory()
	primary := t.nodes[0].ts.URL
	rep := &replication.Replica{DB: st.DB(), Primary: primary, ID: name, Client: t.Client(name, nil)}
	srv, err := server.New(server.Config{
		Store:         st,
		Clock:         t.World.Clock,
		Replica:       true,
		PrimaryURL:    primary,
		ReplicaSource: rep,
	})
	if err != nil {
		st.Close()
		return err
	}
	t.add(&tierNode{name: name, srv: srv, store: st, rep: rep})
	return nil
}

// add mounts the node and serves it on a counting listener in the net.
func (t *Tier) add(n *tierNode) {
	t.mount(n)
	n.ts = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*n.handler.Load()).ServeHTTP(w, r)
	}))
	n.ts.Listener = &nodeListener{Listener: n.ts.Listener, n: n}
	n.ts.Start()
	t.net.AddNode(n.name, n.ts.URL)
	t.nodes = append(t.nodes, n)
}

// mount gives the node's server a WAL publisher over its store, so any
// node can serve the stream after a promotion, and makes it what the
// node serves.
func (t *Tier) mount(n *tierNode) {
	pub := replication.NewPublisher(n.store.DB())
	pub.Now = t.World.Clock.Now
	n.srv.EnableReplication(pub, pub)
	h := n.srv.Handler()
	n.handler.Store(&h)
}

// reopenCold closes p's disk store, as an exiting process does, opens it
// again from what is on disk, and serves it behind p's address from a new
// server configured as the old one; both become the World's. Sessions
// lived in the old server's memory and are gone.
func (t *Tier) reopenCold() error {
	d, p, w := t.disk, t.nodes[0], t.World
	d.store.Close()
	store, err := repo.Open(d.opts)
	if err != nil {
		return err
	}
	d.store, d.db, w.scfg.Store = store, store.DB(), store
	srv, err := server.New(w.scfg)
	if err != nil {
		return err
	}
	w.Server, w.store, p.srv, p.store = srv, store, srv, store
	t.mount(p)
	return nil
}

// Endpoints returns every node's base URL, p first.
func (t *Tier) Endpoints() []string {
	eps := make([]string, len(t.nodes))
	for i, n := range t.nodes {
		eps[i] = n.ts.URL
	}
	return eps
}

// Client returns an HTTP client speaking as the named node through the
// tier's net; base carries what the net lets through (nil selects
// http.DefaultTransport).
func (t *Tier) Client(name string, base http.RoundTripper) *http.Client {
	return &http.Client{Transport: t.net.Transport(name, base)}
}

// node returns the node of that name.
func (t *Tier) node(name string) *tierNode {
	i := slices.IndexFunc(t.nodes, func(n *tierNode) bool { return n.name == name })
	return t.nodes[i]
}

// Close shuts every listener and store down and removes the disk
// node's directory.
func (t *Tier) Close() {
	for _, n := range t.nodes {
		n.ts.Close()
		if n.rep != nil { // p's store is the world's
			n.store.Close()
		}
	}
	t.World.Close()
	if t.disk != nil {
		t.disk.close()
	}
}

// voteWalk tries to land up to want ratings, walking (agent, software)
// pairs off the tier's counter so that walks never collide on a pair
// already rated, records the pairs acked, and returns how many were. A
// nil api votes in process on p; otherwise the votes go over HTTP through
// api, with the agents' enrollment sessions, or, with relogin, with
// sessions from a fresh login through api (sessions live in the memory of
// the server that issued them, so a promoted primary knows none).
func (t *Tier) voteWalk(want int, api *client.API, relogin bool) int {
	w, from := t.World, len(t.acks)
	ctx := context.Background()
	sessions := make(map[string]string)
	for attempt := 0; attempt < want*6 && len(t.acks)-from < want; attempt++ {
		a := w.Agents[t.pair%len(w.Agents)]
		exe := w.Catalog.Items[(t.pair*7)%len(w.Catalog.Items)]
		t.pair++
		score, behaviors := a.Observe(exe)
		if api == nil {
			if _, err := w.Server.Vote(a.Session, MetaOf(exe), score, behaviors, ""); err == nil {
				t.acks = append(t.acks, ack{a.Name, exe.ID()})
			}
			continue
		}
		session := a.Session
		if relogin {
			var ok bool
			if session, ok = sessions[a.Name]; !ok {
				var err error
				if session, err = api.Login(ctx, a.Name, "pw-"+a.Name); err != nil {
					continue
				}
				sessions[a.Name] = session
			}
		}
		if _, err := api.Vote(ctx, session, MetaOf(exe), client.Rating{Score: score, Behaviors: behaviors}); err == nil {
			t.acks = append(t.acks, ack{a.Name, exe.ID()})
		}
	}
	return len(t.acks) - from
}

// auditVotes publishes scores on n, the tier's current primary, and
// counts the ratings its store holds over the catalog. Anything but
// acked is an error: fewer is acknowledged history lost, more is a
// rating stored that nobody acknowledged.
func (t *Tier) auditVotes(n *tierNode, acked int) (int, error) {
	if err := n.srv.RunAggregation(); err != nil {
		return 0, err
	}
	stored := 0
	for _, exe := range t.World.Catalog.Items {
		sc, ok, err := n.store.GetScore(exe.ID())
		if err != nil {
			return stored, err
		}
		if ok {
			stored += sc.Votes
		}
	}
	if stored != acked {
		return stored, fmt.Errorf("%s stores %d ratings, %d were acked", n.name, stored, acked)
	}
	return stored, nil
}

// converged checks that every node stands at p's chain position and
// writes byte-identical snapshots.
func (t *Tier) converged() error {
	var first []byte
	seq, digest := t.nodes[0].store.DB().ChainPosition()
	for i, n := range t.nodes {
		db := n.store.DB()
		if s, d := db.ChainPosition(); s != seq || d != digest {
			return fmt.Errorf("%s at (seq %d, digest %x), %s at (%d, %x)", n.name, s, d, t.nodes[0].name, seq, digest)
		}
		var snap bytes.Buffer
		if _, err := db.WriteSnapshotTo(&snap); err != nil {
			return err
		}
		if i == 0 {
			first = snap.Bytes()
		} else if !bytes.Equal(snap.Bytes(), first) {
			return fmt.Errorf("%s and %s snapshots differ at seq %d", n.name, t.nodes[0].name, seq)
		}
	}
	return nil
}

// warm looks every catalog item up once on p, so that a measured pass
// runs against a store that has seen all of it, and returns their
// metadata in catalog order.
func (t *Tier) warm() ([]core.SoftwareMeta, error) {
	metas := make([]core.SoftwareMeta, len(t.World.Catalog.Items))
	for i, exe := range t.World.Catalog.Items {
		metas[i] = MetaOf(exe)
		if _, err := t.World.Server.Lookup(metas[i]); err != nil {
			return nil, err
		}
	}
	return metas, nil
}

// nodeListener counts every byte crossing a node's socket.
type nodeListener struct {
	net.Listener
	n *tierNode
}

func (l *nodeListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &nodeConn{Conn: c, n: l.n}, nil
}

type nodeConn struct {
	net.Conn
	n *tierNode
}

func (c *nodeConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.in.Add(uint64(n))
	return n, err
}

func (c *nodeConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.out.Add(uint64(n))
	return n, err
}

// diskNode is one durable store in a temporary directory and the ledger
// of every write it acked or refused. A fault plan installed under it
// (storedb.FaultPlan.Install) holds until close.
type diskNode struct {
	opts  storedb.Options // Dir is the temporary directory
	store *repo.Store
	db    *storedb.DB

	mu      sync.Mutex
	acked   map[string]bool
	refused map[string]bool
}

// openDisk opens a store configured by opts in a fresh temporary
// directory.
func openDisk(opts storedb.Options) (*diskNode, error) {
	dir, err := os.MkdirTemp("", "simulation-disk-*")
	if err != nil {
		return nil, err
	}
	opts.Dir = dir
	store, err := repo.Open(opts)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &diskNode{opts: opts, store: store, db: store.DB(),
		acked: map[string]bool{}, refused: map[string]bool{}}, nil
}

// put writes key = val into bucket, records the verdict in the ledger,
// and returns how many writes the node has acked so far.
func (d *diskNode) put(bucket, key string, val []byte) (int, error) {
	err := d.db.Update(func(tx *storedb.Tx) error {
		return tx.MustBucket(bucket).Put([]byte(key), val)
	})
	d.mu.Lock()
	defer d.mu.Unlock()
	if err != nil {
		d.refused[key] = true
	} else {
		d.acked[key] = true
	}
	return len(d.acked), err
}

// verify sizes the ledger into e and counts the acked writes missing
// from bucket and the refused writes present in it.
func (d *diskNode) verify(bucket string, e *event) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	e.acked, e.refused = len(d.acked), len(d.refused)
	return d.db.View(func(tx *storedb.Tx) error {
		b := tx.MustBucket(bucket)
		for key := range d.acked {
			if _, ok := b.Get([]byte(key)); !ok {
				e.lost++
			}
		}
		for key := range d.refused {
			if _, ok := b.Get([]byte(key)); ok {
				e.resurrected++
			}
		}
		return nil
	})
}

func (d *diskNode) close() {
	storedb.UninstallFaults()
	d.store.Close()
	os.RemoveAll(d.opts.Dir)
}

// hotColdPicks fixes a skewed access sequence of n picks over programs:
// hotShare of them aimed at the first hotFrac of the programs, the rest
// spread over the others.
func hotColdPicks(seed int64, n, programs int, hotFrac, hotShare float64) []int {
	hotN := int(hotFrac * float64(programs))
	if hotN < 1 {
		hotN = 1
	}
	rng := rand.New(rand.NewSource(seed))
	picks := make([]int, n)
	for i := range picks {
		if rng.Float64() < hotShare || hotN == programs {
			picks[i] = rng.Intn(hotN)
		} else {
			picks[i] = hotN + rng.Intn(programs-hotN)
		}
	}
	return picks
}

// lookupBodies pre-encodes one XML lookup request per item, for
// measured loops that replay bytes rather than build requests.
func lookupBodies(items []*hostsim.Executable) ([][]byte, error) {
	bodies := make([][]byte, len(items))
	for i, exe := range items {
		meta := MetaOf(exe)
		var buf bytes.Buffer
		err := wire.Encode(&buf, wire.LookupRequest{Software: wire.SoftwareInfo{
			ID:       meta.ID.String(),
			FileName: meta.FileName,
			FileSize: meta.FileSize,
			Vendor:   meta.Vendor,
			Version:  meta.Version,
		}})
		if err != nil {
			return nil, err
		}
		bodies[i] = buf.Bytes()
	}
	return bodies, nil
}

// latencyQuantiles sorts lat in place and returns its median, 99th
// percentile and maximum; all zero when lat is empty.
func latencyQuantiles(lat []time.Duration) (p50, p99, slowest time.Duration) {
	if len(lat) == 0 {
		return 0, 0, 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat[len(lat)/2], lat[len(lat)*99/100], lat[len(lat)-1]
}

// closedLoop runs calls calls on workers concurrent workers, each
// taking the next call index from a shared counter: call(w, c) makes
// call c on worker w and returns how many of its operations failed. It
// returns every call's latency, by index, the failures summed, and the
// wall time.
func closedLoop(workers, calls int, call func(w, c int) int) (lat []time.Duration, failed int, wall time.Duration) {
	lat = make([]time.Duration, calls)
	var failures, next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := int(next.Add(1)) - 1; c < calls; c = int(next.Add(1)) - 1 {
				t0 := time.Now()
				n := call(w, c)
				lat[c] = time.Since(t0)
				if n > 0 {
					failures.Add(int64(n))
				}
			}
		}()
	}
	wg.Wait()
	return lat, int(failures.Load()), time.Since(start)
}
