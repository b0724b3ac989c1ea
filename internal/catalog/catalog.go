// Package catalog is the server's concurrent relation catalog: a sharded
// map of named relation.Locked instances, each carrying its declaration
// catalog and a query engine over the storage advisor's chosen physical
// organization. It is the layer that turns the single-user engine into a
// multi-relation, multi-client database: name resolution, per-relation
// locking, declaration-aware physical design, and durability.
//
// Durability follows the backlog model (§2's [JMRS90] representation): each
// relation persists as one checksummed backlog file with its declaration
// catalog, WAL watermark, physical design, and Merkle state (backlog.Save),
// written atomically via a fsynced temp-file rename. Snapshot saves every
// dirty relation; Open reloads the data directory on boot, replaying each
// backlog and re-attaching the persisted declarations as enforcers, so a
// restarted server validates new transactions exactly as the original did.
package catalog

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backlog"
	"repro/internal/chronon"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/element"
	"repro/internal/integrity"
	"repro/internal/plan"
	"repro/internal/qcache"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/tx"
	"repro/internal/wal"
)

// Catalog errors.
var (
	// ErrNotFound reports a lookup of a relation the catalog does not hold.
	ErrNotFound = fmt.Errorf("catalog: no such relation")
	// ErrExists reports a create of a name already in use.
	ErrExists = fmt.Errorf("catalog: relation already exists")
	// ErrBadName reports a relation name unusable as a catalog key (and
	// data-dir file name).
	ErrBadName = fmt.Errorf("catalog: invalid relation name")
	// ErrReadOnly reports a mutation refused because this process cannot
	// accept writes: either the write-ahead log has poisoned (fail-stop,
	// reads keep serving in degraded mode) or the catalog is a follower
	// replica (mutations belong on the primary). The wrapping error
	// carries which.
	ErrReadOnly = fmt.Errorf("catalog: read-only")
	// ErrIdemReuse reports an idempotency key reused across different
	// operation kinds — a client bug, not a retry.
	ErrIdemReuse = fmt.Errorf("catalog: idempotency key reused for a different operation")
)

// nameRE constrains relation names so they are safe as file names in the
// data directory and unambiguous in URLs.
var nameRE = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_-]{0,63}$`)

// fileSuffix is the persisted-backlog file extension.
const fileSuffix = ".tsbl"

// shardCount is the number of independent locks the name map is split
// across. Lookups hash the name, so unrelated relations never contend.
const shardCount = 16

// Config parameterizes a catalog.
type Config struct {
	// Dir is the data directory for snapshots; empty disables persistence.
	Dir string
	// NewClock supplies the transaction-time source for each relation
	// (created or loaded). Nil defaults to tx.NewSystemClock.
	NewClock func() tx.Clock
	// WAL, when set, makes every mutation crash-safe: it is appended to
	// the log and made durable per the log's sync policy before the call
	// acknowledges. Open replays the log's recovered records over the
	// snapshots, and Snapshot truncates segments the sweep has covered.
	WAL *wal.Log
	// CacheBytes bounds the catalog-wide query-result cache; 0 disables
	// it. Results are keyed by (relation, fingerprint, mutation epoch), so
	// any mutation invalidates a relation's cached results for free.
	CacheBytes int64
	// Follower marks the catalog as a read-only replica: the only writer
	// is ApplyReplicated (replaying WAL frames shipped from a primary),
	// and every client mutation fails typed with ErrReadOnly — the same
	// degraded gate a poisoned WAL trips, so clients need one code path
	// for "this process cannot accept writes". Reads serve normally.
	Follower bool
	// DisableIntegrity turns off the per-relation Merkle accounting and
	// proof serving. Integrity is on by default wherever committed frames
	// exist (a WAL is attached or the catalog is a follower); the knob
	// exists for the write-path overhead baseline in benchmarks.
	DisableIntegrity bool
	// Signer signs sealed epoch roots (primaries). Nil — the follower
	// posture — serves unsigned roots; clients verify those against the
	// primary's key via consistency with a signed anchor.
	Signer *integrity.Signer
}

// WAL record kinds. These values are replayed from disk, so they must
// stay stable across releases. Writers emit walCreate, walDeclare,
// walRespecialize, and walData; kinds 3–8 are replay-only (commit.go's
// decodeDataFrame normalizes them into walData's record list), so logs
// written before the single data frame still recover.
const (
	walCreate      wal.Kind = 1
	walDeclare     wal.Kind = 2
	walInsert      wal.Kind = 3
	walDelete      wal.Kind = 4
	walModify      wal.Kind = 5
	walInsertKeyed wal.Kind = 6
	walDeleteKeyed wal.Kind = 7
	walModifyKeyed wal.Kind = 8
	// walRespecialize journals a physical-design change: the adopted
	// observed classes and the organization they licensed. Replaying it
	// (boot recovery and follower apply alike) restores the adoption, so
	// the migrated organization survives a crash and ships to replicas.
	walRespecialize wal.Kind = 9
	// walData journals every data write: a sequence of keyed backlog
	// insert and delete records, one transaction time per mutation
	// (commit.go). One group-commit entry and one Merkle leaf per commit;
	// replay is all-or-nothing per frame.
	walData wal.Kind = 10
)

type shard struct {
	mu      sync.RWMutex
	entries map[string]*Entry
}

// Catalog is a concurrent set of named relations.
type Catalog struct {
	cfg    Config
	shards [shardCount]shard
	cache  *qcache.Cache

	// Integrity journal: a bounded ring of recent detection/repair events
	// (igMu also serializes appends to the on-disk journal) plus lifetime
	// counters, fed by the scrubber and the verify endpoint.
	igMu          sync.Mutex
	igRing        []IntegrityEvent
	igDetected    atomic.Uint64
	igRepaired    atomic.Uint64
	igQuarantines atomic.Uint64
	// igRefetch is set when a follower dropped a corrupt snapshot shard
	// at boot: the relation's history exists only on the primary now, so
	// the tail must resume from the beginning of the feed.
	igRefetch atomic.Bool
}

// New creates an empty catalog. Call Open to load the data directory.
func New(cfg Config) *Catalog {
	c := &Catalog{cfg: cfg, cache: qcache.New(cfg.CacheBytes)}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*Entry)
	}
	return c
}

// Cache exposes the catalog-wide query-result cache (nil when disabled),
// for the server's metrics endpoint and its EXPLAIN caching.
func (c *Catalog) Cache() *qcache.Cache { return c.cache }

func (c *Catalog) newClock() tx.Clock {
	if c.cfg.NewClock != nil {
		return c.cfg.NewClock()
	}
	return tx.NewSystemClock()
}

func (c *Catalog) shardFor(name string) *shard {
	h := fnv.New32a()
	h.Write([]byte(name))
	return &c.shards[h.Sum32()%shardCount]
}

// Open loads every persisted relation from the data directory, then
// replays the write-ahead log's recovered records over the snapshots.
// Missing directories are created; a corrupt backlog or log aborts the
// boot rather than serving partial state.
func (c *Catalog) Open() error {
	if c.cfg.Dir != "" {
		if err := os.MkdirAll(c.cfg.Dir, 0o755); err != nil {
			return fmt.Errorf("catalog: data dir: %w", err)
		}
		des, err := os.ReadDir(c.cfg.Dir)
		if err != nil {
			return fmt.Errorf("catalog: data dir: %w", err)
		}
		for _, de := range des {
			if de.IsDir() || !strings.HasSuffix(de.Name(), fileSuffix) {
				continue
			}
			name := strings.TrimSuffix(de.Name(), fileSuffix)
			path := filepath.Join(c.cfg.Dir, de.Name())
			r, m, err := backlog.Load(path, c.newClock())
			if err != nil {
				if c.cfg.Follower {
					// A follower's shard is derived state the primary's feed
					// can rebuild. Keep the evidence, drop the shard, and boot
					// without the relation; igRefetch forces the tail to
					// resume from the start of the feed, re-shipping the
					// relation's whole history (other relations skip the
					// duplicates — replay is idempotent).
					c.preserveEvidence(de.Name(), func() ([]byte, error) { return os.ReadFile(path) })
					_ = os.Remove(path)
					c.igDetected.Add(1)
					c.journalIntegrity(IntegrityEvent{
						Kind: "detect", ArtKind: "snapshot", Artifact: de.Name(), Rel: name,
						Detail: err.Error(),
					})
					c.journalIntegrity(IntegrityEvent{
						Kind: "repair", ArtKind: "snapshot", Artifact: de.Name(), Rel: name,
						Detail: "corrupt shard dropped at boot; re-fetching history from the primary feed",
					})
					c.igRepaired.Add(1)
					c.igRefetch.Store(true)
					continue
				}
				return fmt.Errorf("catalog: loading %s: %w", path, err)
			}
			if r.Schema().Name != name {
				return fmt.Errorf("catalog: %s holds relation %q, want %q", path, r.Schema().Name, name)
			}
			e := c.newEntry(name, relation.NewLocked(r), m.Decls, m.Physical)
			e.wal = c.cfg.WAL
			e.walLSN.Store(m.WALLSN)
			e.seedIntegrity(m.Integrity)
			sh := c.shardFor(name)
			sh.mu.Lock()
			if _, dup := sh.entries[name]; dup {
				sh.mu.Unlock()
				return fmt.Errorf("catalog: duplicate relation %q in data dir", name)
			}
			sh.entries[name] = e
			sh.mu.Unlock()
		}
	}
	if w := c.cfg.WAL; w != nil {
		start := time.Now()
		if err := c.replay(w.TakeRecovered()); err != nil {
			return fmt.Errorf("catalog: wal replay, %w", err)
		}
		w.AddReplayDuration(time.Since(start))
	}
	return nil
}

// replay applies WAL records in LSN order — boot recovery and follower
// apply alike. Data records apply one at a time through the step the live
// commit runs after journaling (Entry.applied), so a batch costs what its
// records cost, not a rebuild of the relation's store. Declaration and
// respecialize frames rebuild the engine when they apply, as live Declare
// and Respecialize do. Each touched relation publishes once at the end,
// bumping its epoch past the pre-replay view, so any result cached
// against an older epoch is dead on arrival.
func (c *Catalog) replay(recs []wal.Record) error {
	touched := make(map[*Entry]bool)
	for _, rec := range recs {
		e, err := c.applyWALRecord(rec)
		if err != nil {
			return fmt.Errorf("lsn %d: %w", rec.LSN, err)
		}
		if e != nil {
			touched[e] = true
		}
	}
	for e := range touched {
		_ = e.locked.Exclusive(func(*relation.Relation) error {
			e.publish()
			return nil
		})
		e.dirty.Store(true)
	}
	return nil
}

// applyWALRecord redoes one recovered log record. Records a snapshot
// already covers (LSN at or below the relation's persisted watermark) are
// skipped, which is what makes replay idempotent across partially
// truncated logs. Returns the touched entry, or nil when skipped.
func (c *Catalog) applyWALRecord(rec wal.Record) (*Entry, error) {
	if rec.Kind == walCreate {
		schema, err := backlog.DecodeSchema(rec.Payload)
		if err != nil {
			return nil, err
		}
		if schema.Name != rec.Rel {
			return nil, fmt.Errorf("create record for %q holds schema %q", rec.Rel, schema.Name)
		}
		sh := c.shardFor(rec.Rel)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if _, dup := sh.entries[rec.Rel]; dup {
			return nil, nil // the snapshot file already restored it
		}
		e := c.newEntry(rec.Rel, relation.NewLocked(relation.New(schema, c.newClock())), nil, backlog.Physical{})
		e.wal = c.cfg.WAL
		e.walLSN.Store(rec.LSN)
		e.appendLeaf(rec.LSN, rec.Kind, rec.Payload)
		e.dirty.Store(true)
		sh.entries[rec.Rel] = e
		return e, nil
	}
	e, err := c.Get(rec.Rel)
	if err != nil {
		return nil, err
	}
	if rec.LSN <= e.walLSN.Load() {
		return nil, nil
	}
	err = e.locked.Exclusive(func(r *relation.Relation) error {
		switch rec.Kind {
		case walDeclare:
			descs, err := backlog.DecodeDeclarations(rec.Payload)
			if err != nil {
				return err
			}
			// The history was validated when the declaration was first
			// accepted; the enforcers warm without re-checking it.
			if err := constraint.Restore(r, descs); err != nil {
				return err
			}
			e.decls = append(e.decls, descs...)
		case walRespecialize:
			org, source, adopted, err := decodeRespecialize(rec.Payload)
			if err != nil {
				return err
			}
			// Restore the adoption; the rebuild below re-derives the
			// organization from it and the history, so primaries and
			// followers land on the design the journaling process chose.
			e.adopted = adopted
			e.migrations++
			e.history = append(e.history, Migration{
				Epoch: e.Epoch(), From: e.advice.Store, To: org, Source: source,
			})
		default:
			// Every data kind decodes whole before any record applies: the
			// CRC admitted the frame, so a batch never replays as a prefix.
			recs, err := decodeDataFrame(rec.Kind, rec.Payload)
			if err != nil {
				return err
			}
			return e.replayData(r, recs)
		}
		_ = e.rebuildEngine(r) // bounds errors only; the engine is valid
		return nil
	})
	if err != nil {
		return nil, err
	}
	e.walLSN.Store(rec.LSN)
	// The leaf hashes the frame exactly as logged — its own kind and
	// payload, not the normalized records applied above — so primaries,
	// boot-time replay, and follower apply agree on every leaf.
	e.appendLeaf(rec.LSN, rec.Kind, rec.Payload)
	return e, nil
}

// Migration records one physical-design change of a relation: the epoch it
// happened at, the organizations involved, the advice's provenance, and
// the advisor's reasons. Live migrations carry full detail; replayed ones
// carry what the WAL frame preserved.
type Migration struct {
	Epoch    uint64
	From, To storage.Kind
	Source   string
	Reasons  []string
}

// encodeRespecialize frames a physical-design change for the WAL: the
// target organization, the advice source, and the adopted observed
// classes. The classes are what replay needs — the organization and source
// are re-derived deterministically by rebuildEngine, but carrying them
// makes the frame self-describing for the migration history.
func encodeRespecialize(org storage.Kind, source string, adopted []core.Class) []byte {
	out := []byte{uint8(org)}
	out = append(out, uint8(len(source)))
	out = append(out, source...)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(adopted)))
	for _, c := range adopted {
		out = append(out, uint8(c))
	}
	return out
}

func decodeRespecialize(b []byte) (org storage.Kind, source string, adopted []core.Class, err error) {
	fail := func(msg string) (storage.Kind, string, []core.Class, error) {
		return 0, "", nil, fmt.Errorf("catalog: %s respecialize payload", msg)
	}
	if len(b) < 2 {
		return fail("short")
	}
	org = storage.Kind(b[0])
	sn := int(b[1])
	b = b[2:]
	if len(b) < sn+2 {
		return fail("short")
	}
	source = string(b[:sn])
	b = b[sn:]
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if len(b) != n {
		return fail("bad framing in")
	}
	for _, c := range b {
		adopted = append(adopted, core.Class(c))
	}
	return org, source, adopted, nil
}

// Create adds an empty relation under schema.Name. The name must satisfy
// the catalog's naming rule so it can double as the snapshot file name.
func (c *Catalog) Create(schema relation.Schema) (*Entry, error) {
	name := schema.Name
	if !nameRE.MatchString(name) {
		return nil, fmt.Errorf("%w: %q (want %s)", ErrBadName, name, nameRE)
	}
	if c.cfg.Follower {
		return nil, errFollowerReadOnly()
	}
	if err := c.Degraded(); err != nil {
		return nil, err
	}
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	r := relation.New(schema, c.newClock())
	e := c.newEntry(name, relation.NewLocked(r), nil, backlog.Physical{})
	e.wal = c.cfg.WAL
	e.dirty.Store(true) // persist even if never written to
	sh := c.shardFor(name)
	sh.mu.Lock()
	if _, dup := sh.entries[name]; dup {
		sh.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	// Logged under the shard lock so the create's WAL position matches its
	// catalog visibility order; creates are rare.
	lsn, err := e.journal(walCreate, backlog.EncodeSchema(schema))
	if err != nil {
		sh.mu.Unlock()
		return nil, err
	}
	sh.entries[name] = e
	sh.mu.Unlock()
	if err := e.waitDurable(lsn); err != nil {
		return nil, err
	}
	return e, nil
}

// WAL exposes the catalog's write-ahead log (nil when disabled), for the
// server's metrics endpoint.
func (c *Catalog) WAL() *wal.Log { return c.cfg.WAL }

// Degraded reports why the catalog is in read-only degraded mode, or nil
// while fully writable. The only degradation cause today is a poisoned
// WAL: its first I/O failure is sticky (fail-stop), reads keep serving
// from memory, and every mutation fails typed with ErrReadOnly until the
// operator restarts the server (recovering the durable prefix).
func (c *Catalog) Degraded() error {
	if w := c.cfg.WAL; w != nil {
		if err := w.Err(); err != nil {
			return fmt.Errorf("%w: %w", ErrReadOnly, err)
		}
	}
	return nil
}

// writable refuses mutations while the relation is quarantined by an
// integrity detection, the WAL is poisoned, or the catalog is a follower
// replica.
func (e *Entry) writable() error {
	if cause := e.quarCause.Load(); cause != nil {
		return fmt.Errorf("%w: integrity quarantine: %s", ErrReadOnly, *cause)
	}
	if e.follower {
		return errFollowerReadOnly()
	}
	if e.wal != nil {
		if err := e.wal.Err(); err != nil {
			return fmt.Errorf("%w: %w", ErrReadOnly, err)
		}
	}
	return nil
}

// Get resolves a relation by name.
func (c *Catalog) Get(name string) (*Entry, error) {
	sh := c.shardFor(name)
	sh.mu.RLock()
	e, ok := sh.entries[name]
	sh.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return e, nil
}

// Names lists the catalog's relation names in sorted order.
func (c *Catalog) Names() []string {
	var out []string
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for n := range sh.entries {
			out = append(out, n)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// Len reports the number of relations.
func (c *Catalog) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += len(sh.entries)
		sh.mu.RUnlock()
	}
	return n
}

// Snapshot persists every dirty relation to the data directory, each
// written atomically (temp file + rename). It returns the number of
// relations saved. Writers to a relation block only while that relation is
// being serialized, not for the whole sweep.
//
// Truncation protocol: the sweep first reads the WAL's durable watermark.
// Every record at or below it was applied to memory before the sweep's
// per-relation locks were taken (the catalog appends and applies under one
// exclusive section), so after a fully successful sweep each such record
// is either inside a fresh snapshot or inside a file an earlier snapshot
// wrote and the relation has not dirtied since. Only then are segments
// wholly at or below the watermark deleted. A partially failed sweep
// truncates nothing.
func (c *Catalog) Snapshot() (int, error) {
	if c.cfg.Dir == "" {
		return 0, nil
	}
	w := c.cfg.WAL
	var cut uint64
	if w != nil {
		if err := w.Err(); err != nil {
			// The log is poisoned (fail-stop): a snapshot now could persist
			// writes that were never acknowledged. Refuse; the operator
			// restarts the server, which recovers the durable prefix.
			return 0, fmt.Errorf("%w: refusing snapshot: %w", ErrReadOnly, err)
		}
		cut = w.DurableLSN()
	}
	saved := 0
	for _, name := range c.Names() {
		e, err := c.Get(name)
		if err != nil {
			continue // dropped concurrently; nothing to save
		}
		ok, err := e.snapshotTo(filepath.Join(c.cfg.Dir, name+fileSuffix))
		if err != nil {
			return saved, fmt.Errorf("catalog: snapshot %q: %w", name, err)
		}
		if ok {
			saved++
		}
	}
	if w != nil {
		if _, err := w.TruncateBelow(cut); err != nil {
			return saved, fmt.Errorf("catalog: wal truncation: %w", err)
		}
	}
	return saved, nil
}

// Close flushes the catalog. The caller must have stopped serving first.
func (c *Catalog) Close() error {
	_, err := c.Snapshot()
	return err
}

// Entry is one named relation with its declaration catalog and the query
// engine over the advisor-chosen physical organization. All mutable state
// hangs off the relation's own reader-writer lock: writes and declaration
// changes run under the exclusive lock, queries and snapshots under the
// shared lock, so many readers proceed in parallel and writers serialize.
type Entry struct {
	name   string
	locked *relation.Locked

	// Guarded by locked's lock (mutated under Exclusive only):
	decls  []constraint.Descriptor
	engine *query.Engine
	advice storage.Advice

	// dirty marks unsaved changes; atomic so snapshots (shared lock) can
	// clear it while other readers run.
	dirty atomic.Bool

	// wal is the catalog's write-ahead log (nil when disabled). walLSN is
	// the LSN of the relation's latest logged mutation; snapshots persist
	// it so boot-time replay can skip records the snapshot covers.
	wal    *wal.Log
	walLSN atomic.Uint64

	// dedup is the relation's idempotency window (see dedup.go). Guarded
	// by locked's exclusive lock, like decls.
	dedup *dedupWindow

	// tracker incrementally observes the extension's timestamps (guarded
	// by locked's exclusive lock): the monotone class properties it still
	// holds are what the advisor may adopt without a declaration. Rebuilt
	// alongside the engine so it always reflects the live history.
	tracker *core.Tracker

	// adopted is the set of observed classes a journaled respecialize
	// committed to (guarded by the exclusive lock). rebuildEngine
	// intersects it with the tracker's current classes, so an adoption the
	// history later violates degrades back to the general organization
	// instead of serving a broken promise.
	adopted []core.Class

	// migrations counts journaled physical-design changes; history keeps
	// their in-memory detail (both guarded by the exclusive lock).
	migrations uint64
	history    []Migration

	// lastAdviseEpoch and lastAdviseBytes gate the background advisor's
	// re-advising thresholds (see advisor.go).
	lastAdviseEpoch atomic.Uint64
	lastAdviseBytes atomic.Int64

	// physical is the published physical-design snapshot, recomputed by
	// publish under the exclusive lock. Readers (the metrics endpoint is
	// a probe and must never queue behind a writer) load it atomically.
	physical atomic.Pointer[Physical]

	// plans counts queries and touched elements per plan kind over the
	// entry's lifetime — the one plan-count registry: the read step books
	// every answer here (0 touched on a cache hit), Info reports it per
	// relation, and /metrics sums it across relations. It lives here
	// rather than on the engine because every publish snapshots a fresh
	// engine; the counters must survive that.
	plans plan.Recorder

	// Batch-operator counters, recorded on the lock-free aggregate read
	// path (hence atomic): batches/batchRows count what the columnar
	// engine consumed; colPicks/rowPicks count the planner's engine
	// choice per executed aggregate (cache hits execute nothing).
	batches   atomic.Int64
	batchRows atomic.Int64
	colPicks  atomic.Int64
	rowPicks  atomic.Int64

	// Batched-ingest counters (batch.go): InsertBatch calls that wrote a
	// frame, and the elements those frames carried. Atomic so /metrics can
	// read them without queueing behind writers.
	ingBatches atomic.Int64
	ingElems   atomic.Int64

	// view is the published immutable read snapshot, swapped atomically by
	// publish under the exclusive lock on every mutation. Readers pin it
	// with one atomic load and then run entirely lock-free: the view's
	// store never mutates (copy-on-close deletes swap clones into the live
	// structures, leaving the pinned elements exactly as published). Never
	// nil after newEntry.
	view atomic.Pointer[readView]

	// cache is the catalog-wide result cache (nil-safe when disabled) and
	// follower the read-only-replica gate, both copied from the catalog at
	// entry construction.
	cache    *qcache.Cache
	follower bool

	// Integrity state. tree is the relation's Merkle tree over committed
	// WAL frames, nil when integrity is off; it has its own mutex because
	// leaves are appended from paths holding different locks (the shard
	// lock for creates, the relation's exclusive lock elsewhere) while
	// proof serving reads it lock-free with respect to the relation.
	// sealedRoot holds the last signed epoch root; sealing keeps seals
	// from piling up behind one another; quarCause, when set, degrades
	// the relation to read-only until its artifacts are repaired.
	igMu       sync.Mutex
	tree       *integrity.Tree
	signer     *integrity.Signer
	sealedRoot atomic.Pointer[integrity.SignedRoot]
	sealing    atomic.Bool
	quarCause  atomic.Pointer[string]
}

// readView is one published epoch of a relation: a frozen store snapshot
// wrapped in its own engine, the advice that chose its organization, the
// elements in arrival (tt⊢) order for the scan paths, and the schema. A
// reader that pinned a view observes the relation exactly as of the
// epoch's publication no matter how many writers commit meanwhile.
type readView struct {
	epoch  uint64
	engine *query.Engine
	advice storage.Advice
	elems  []*element.Element
	schema relation.Schema
}

// publish stamps the next mutation epoch and swaps in a fresh immutable
// view of the engine's store. Caller holds the exclusive lock (epochs
// must be assigned in commit order).
func (e *Entry) publish() {
	ep := uint64(1)
	if old := e.view.Load(); old != nil {
		ep = old.epoch + 1
	}
	en := e.engine.Snapshot()
	e.view.Store(&readView{
		epoch:  ep,
		engine: en,
		advice: e.advice,
		elems:  storage.Elements(en.Store()),
		schema: e.locked.Schema(),
	})
	phys := e.physicalLocked()
	e.physical.Store(&phys)
}

// Epoch reports the relation's current mutation epoch — bumped by every
// insert, delete, modify, declare, vacuum, and boot-time replay. It is
// the validator the server hands out as an ETag and the cache keys
// results under.
func (e *Entry) Epoch() uint64 { return e.view.Load().epoch }

// classesToU8 and classesFromU8 convert between the engine's class enum
// and the backlog's persisted byte form.
func classesToU8(cs []core.Class) []uint8 {
	var out []uint8
	for _, c := range cs {
		out = append(out, uint8(c))
	}
	return out
}

func classesFromU8(bs []uint8) []core.Class {
	var out []core.Class
	for _, b := range bs {
		out = append(out, core.Class(b))
	}
	return out
}

// newEntry constructs an entry over the locked relation, seeding the
// persisted physical design (adopted observed classes and migration
// count) before the first engine rebuild so a restored relation adopts
// its migrated organization without WAL replay.
func (c *Catalog) newEntry(name string, l *relation.Locked, decls []constraint.Descriptor, phys backlog.Physical) *Entry {
	e := &Entry{
		name: name, locked: l, decls: decls, dedup: newDedupWindow(),
		cache: c.cache, follower: c.cfg.Follower,
		adopted: classesFromU8(phys.Adopted), migrations: phys.Migrations,
	}
	if c.integrityEnabled() {
		e.tree = integrity.NewTree()
		e.signer = c.cfg.Signer
	}
	_ = l.Exclusive(func(r *relation.Relation) error {
		// A bounds error here means a persisted declaration carries
		// inverted offsets; the engine still works, just without pushdown.
		_ = e.rebuildEngine(r)
		e.publish()
		return nil
	})
	return e
}

// Name returns the catalog key.
func (e *Entry) Name() string { return e.name }

// Schema returns the relation schema (immutable).
func (e *Entry) Schema() relation.Schema { return e.locked.Schema() }

// Locked exposes the underlying locked relation for callers (tests, the
// in-process shell) that need direct access.
func (e *Entry) Locked() *relation.Locked { return e.locked }

// perRelationClasses lists the classes declared with per-relation scope —
// the only ones that license a global physical ordering. A per-partition
// sequentiality says nothing about the interleaving of partitions, so it
// must not steer the advisor toward a globally vt-ordered store.
func perRelationClasses(decls []constraint.Descriptor) []core.Class {
	var out []core.Class
	for _, d := range decls {
		if d.Scope == constraint.PerRelation {
			out = append(out, d.Class)
		}
	}
	return out
}

// activeAdopted intersects the entry's adopted observed classes with what
// the tracker still holds: an adoption the history has since violated
// stops licensing anything, so the advisor degrades cleanly instead of
// serving a broken promise. Caller holds the exclusive lock.
func (e *Entry) activeAdopted() []core.Class {
	if len(e.adopted) == 0 || e.tracker == nil {
		return nil
	}
	held := make(map[core.Class]bool)
	for _, c := range e.tracker.Classes() {
		held[c] = true
	}
	var out []core.Class
	for _, c := range e.adopted {
		if held[c] {
			out = append(out, c)
		}
	}
	return out
}

// rebuildEngine reloads the advisor-chosen store from the relation's
// versions, rebuilding the extension tracker over the same walk. Caller
// holds the exclusive lock. The returned error reports only unusable
// declared offset bounds; the engine is valid either way (it just runs
// without the pushdown).
func (e *Entry) rebuildEngine(r *relation.Relation) error {
	schema := r.Schema()
	tr := core.NewTracker(schema.ValidTime, schema.Granularity)
	for _, el := range r.Versions() {
		tr.Observe(el)
	}
	e.tracker = tr
	classes := perRelationClasses(e.decls)
	advice := storage.AdviseAuto(classes, e.activeAdopted(), schema.ValidTime)
	st := advice.New()
	if ferr := fillStore(st, r); ferr != nil {
		// The history predates the ordering promise (or the promise is
		// unenforceable); fall back to the general organization, which
		// only assumes tt order.
		advice = storage.Advise(nil, schema.ValidTime)
		advice.Reasons = append(advice.Reasons,
			fmt.Sprintf("fell back: existing history violates the declared order (%v)", ferr))
		st = advice.New()
		if ferr := fillStore(st, r); ferr != nil {
			// Even transaction-time order does not hold — a clock that
			// restarted behind persisted stamps can commit tt out of order.
			// The heap assumes nothing, so every committed element stays
			// queryable; dropping one here would make an acknowledged write
			// invisible to reads.
			advice.Store, advice.Source = storage.Heap, storage.SourceDefault
			advice.Reasons = append(advice.Reasons,
				fmt.Sprintf("fell back: history violates transaction-time order (%v)", ferr))
			st = advice.New()
			_ = fillStore(st, r) // heap inserts cannot fail
		}
	}
	en := query.New(st, classes)
	e.engine, e.advice = en, advice
	// A declared two-sided fixed bound turns valid-time predicates into
	// transaction-time windows over the tt-ordered log (§3.1's query
	// strategies); enable the pushdown when a per-relation event
	// declaration carries one.
	if advice.Store == storage.TTOrdered && r.Schema().ValidTime == element.EventStamp {
		for _, d := range e.decls {
			if d.Scope != constraint.PerRelation || d.Kind != constraint.DescEvent {
				continue
			}
			c, err := d.Build()
			if err != nil {
				continue
			}
			ev, ok := c.(constraint.Event)
			if !ok {
				continue
			}
			if lo, hi, ok := ev.Spec.OffsetBounds(); ok {
				if err := en.UseVTOffsetBounds(lo, hi); err != nil {
					return fmt.Errorf("catalog: unusable offset bounds in declaration: %w", err)
				}
				break
			}
		}
	}
	return nil
}

// fillStore loads every version of r into st, stopping at the store's
// first refusal.
func fillStore(st storage.Store, r *relation.Relation) error {
	for _, el := range r.Versions() {
		if err := st.Insert(el); err != nil {
			return err
		}
	}
	return nil
}

// journal is the write-ahead step of every mutation: it appends one frame
// for the relation and feeds the frame's Merkle leaf. Callers hold the
// relation's exclusive lock (the shard lock for creates), so the log's
// per-relation order is the commit order. Without a WAL it journals
// nothing and returns LSN 0.
func (e *Entry) journal(kind wal.Kind, payload []byte) (uint64, error) {
	if e.wal == nil {
		return 0, nil
	}
	lsn, err := e.wal.Write(kind, e.name, payload)
	if err != nil {
		return 0, e.walErr(err)
	}
	e.walLSN.Store(lsn)
	e.appendLeaf(lsn, kind, payload)
	return lsn, nil
}

// walErr classifies a WAL append/wait failure: once the log has poisoned
// the catalog is read-only, so the typed ErrReadOnly (with the cause)
// tells clients not to retry against this process.
func (e *Entry) walErr(err error) error {
	if e.wal != nil && e.wal.Err() != nil {
		return fmt.Errorf("%w: %w", ErrReadOnly, err)
	}
	return fmt.Errorf("catalog: wal: %w", err)
}

// waitDurable blocks until the entry's latest logged mutation is durable.
// Called outside the relation lock, so concurrent committers on other
// relations (and later ones on this relation) share the group fsync.
// Durability is also the integrity epoch boundary: the tree root covering
// everything committed so far is sealed (signed) here, batching one seal
// per group commit rather than one per mutation.
func (e *Entry) waitDurable(lsn uint64) error {
	if e.wal == nil {
		return nil
	}
	if err := e.wal.WaitDurable(lsn); err != nil {
		return e.walErr(err)
	}
	e.sealRoot()
	return nil
}

func (e *Entry) decls2general(r *relation.Relation, cause error) {
	saved := e.decls
	e.decls = nil
	_ = e.rebuildEngine(r) // nil decls: no bounds to reject
	e.decls = saved
	e.advice.Reasons = append(e.advice.Reasons,
		fmt.Sprintf("fell back: committed element violates the store order (%v)", cause))
}

// Declare attaches the descriptors' constraints as enforcers, one per
// scope. The existing extension is validated first: a declaration the
// stored history already violates is rejected whole, leaving the relation
// unguarded by it (the paper's intensional definition — all extensions of
// a typed schema must satisfy the type). On success the declaration
// catalog grows and the physical design is re-advised.
func (e *Entry) Declare(descs []constraint.Descriptor) error {
	if len(descs) == 0 {
		return fmt.Errorf("catalog: no constraints to declare")
	}
	if err := e.writable(); err != nil {
		return err
	}
	byScope, err := constraint.BuildAll(descs)
	if err != nil {
		return err
	}
	var lsn uint64
	err = e.locked.Exclusive(func(r *relation.Relation) error {
		var enforcers []*constraint.Enforcer
		for scope, cs := range byScope {
			en := constraint.NewEnforcer(scope, cs...)
			// Replay the backlog through the fresh enforcer, checking each
			// operation as if it were arriving now; the incremental
			// checkers end warm for the next live transaction.
			for _, rec := range r.Backlog() {
				var err error
				if rec.Op == relation.OpInsert {
					err = en.CheckInsert(r, rec.Elem)
				} else {
					err = en.CheckDelete(r, rec.Elem, rec.TT)
				}
				if err != nil {
					return fmt.Errorf("catalog: existing extension violates declaration (%w): %w", relation.ErrRejected, err)
				}
				en.Applied(r, rec.Op, rec.Elem, rec.TT)
			}
			enforcers = append(enforcers, en)
		}
		// Validation passed; log the declaration before attaching it.
		var err error
		if lsn, err = e.journal(walDeclare, backlog.EncodeDeclarations(descs)); err != nil {
			return err
		}
		for _, en := range enforcers {
			r.AddGuard(en)
		}
		e.decls = append(e.decls, descs...)
		// A rebuild error means the declaration stands (its enforcer is
		// sound) but its bounds cannot drive the pushdown; publish anyway
		// and surface the bug to the caller.
		err = e.rebuildEngine(r)
		e.publish()
		e.dirty.Store(true)
		return err
	})
	if err != nil {
		return err
	}
	return e.waitDurable(lsn)
}

// Vacuum physically removes versions dead at or before the horizon (see
// relation.Vacuum), rebuilds the physical store over the survivors, and
// publishes a fresh epoch so pinned views keep serving the pre-vacuum
// state and every cached result is invalidated. No-op horizons (nothing
// removed) publish nothing — reads keep their epoch and cache.
func (e *Entry) Vacuum(horizon chronon.Chronon) (int, error) {
	// Vacuum is not WAL-logged, so a follower must refuse it: a removal
	// the primary never shipped would silently diverge the replica.
	if err := e.writable(); err != nil {
		return 0, err
	}
	removed := 0
	err := e.locked.Exclusive(func(r *relation.Relation) error {
		n, err := r.Vacuum(horizon)
		if err != nil {
			return err
		}
		removed = n
		if n > 0 {
			_ = e.rebuildEngine(r)
			e.publish()
			e.dirty.Store(true)
		}
		return nil
	})
	return removed, err
}

// Respecialize re-advises the relation's physical design from its
// declarations and its observed extension, and migrates the live store
// when the advice differs from the current organization. The migration is
// journaled (walRespecialize) before the store is rebuilt, so the adopted
// design survives a crash and ships to followers; the rebuild happens
// under the exclusive lock but readers never block — they keep serving
// the previously published view until the fresh epoch is swapped in.
// Returns the migration record and whether one happened.
func (e *Entry) Respecialize() (Migration, bool, error) {
	if err := e.writable(); err != nil {
		return Migration{}, false, err
	}
	var mig Migration
	migrated := false
	var lsn uint64
	err := e.locked.Exclusive(func(r *relation.Relation) error {
		declared := perRelationClasses(e.decls)
		observed := e.tracker.Classes()
		cand := storage.AdviseAuto(declared, observed, r.Schema().ValidTime)
		if cand.Store == e.advice.Store {
			return nil // the live organization is already the advised one
		}
		var err error
		if lsn, err = e.journal(walRespecialize, encodeRespecialize(cand.Store, cand.Source, observed)); err != nil {
			return err
		}
		from := e.advice.Store
		e.adopted = observed
		_ = e.rebuildEngine(r) // bounds errors only; the engine is valid
		e.migrations++
		mig = Migration{
			Epoch:   e.Epoch() + 1, // the epoch publish is about to stamp
			From:    from,
			To:      e.advice.Store,
			Source:  e.advice.Source,
			Reasons: append([]string(nil), e.advice.Reasons...),
		}
		e.history = append(e.history, mig)
		e.publish()
		e.dirty.Store(true)
		migrated = true
		return nil
	})
	if err != nil || !migrated {
		return mig, migrated, err
	}
	return mig, true, e.waitDurable(lsn)
}

// Compact seals frozen runs over the live store's stable prefix when the
// organization supports it, publishing a fresh epoch so subsequent reads
// see the run metadata. Returns how many elements were newly sealed.
// Deliberately not WAL-logged: runs are derived state, rebuilt by the
// advisor loop after a restart.
func (e *Entry) Compact() int {
	sealed := 0
	_ = e.locked.Exclusive(func(r *relation.Relation) error {
		c, ok := e.engine.Store().(storage.Compacter)
		if !ok {
			return nil
		}
		if sealed = c.Compact(); sealed > 0 {
			e.publish()
		}
		return nil
	})
	return sealed
}

// Physical is a consistent snapshot of the entry's physical design: the
// live organization with its provenance, the declared / inferred / adopted
// class sets, the migration history, and the compaction state.
type Physical struct {
	Org     storage.Kind
	Source  string
	Reasons []string
	// Declared are the per-relation declared classes; Inferred the monotone
	// classes the extension tracker currently holds; Adopted the observed
	// classes a journaled respecialize committed to.
	Declared   []core.Class
	Inferred   []core.Class
	Adopted    []core.Class
	Migrations uint64
	History    []Migration
	Compaction storage.CompactionStats
	StoreBytes int64
	Tracker    core.TrackerStats
}

// Physical reports the entry's current physical design. It reads the
// atomically published snapshot — one load, no relation lock — so probe
// traffic (the metrics endpoint) never queues behind writers.
func (e *Entry) Physical() Physical {
	return *e.physical.Load()
}

// physicalLocked builds the Physical snapshot; caller holds the lock.
func (e *Entry) physicalLocked() Physical {
	return Physical{
		Org:        e.advice.Store,
		Source:     e.advice.Source,
		Reasons:    append([]string(nil), e.advice.Reasons...),
		Declared:   perRelationClasses(e.decls),
		Inferred:   e.tracker.Classes(),
		Adopted:    append([]core.Class(nil), e.adopted...),
		Migrations: e.migrations,
		History:    append([]Migration(nil), e.history...),
		Compaction: storage.Compaction(e.engine.Store()),
		StoreBytes: storage.StoreBytes(e.engine.Store()),
		Tracker:    e.tracker.Stats(),
	}
}

// PlanStats reports the entry's lifetime per-plan-kind counters — the one
// registry every read books on (see read).
func (e *Entry) PlanStats() map[string]plan.KindStats { return e.plans.Snapshot() }

// Classify infers the extension's specializations under the insertion
// basis at the schema granularity.
func (e *Entry) Classify() (core.Report, error) {
	var rep core.Report
	err := e.locked.View(func(r *relation.Relation) error {
		if r.Len() == 0 {
			return fmt.Errorf("catalog: relation %q is empty", e.name)
		}
		rep = core.Classify(r.Versions(), core.TTInsertion, r.Schema().Granularity)
		return nil
	})
	return rep, err
}

// Info is a consistent snapshot of the entry's metadata.
type Info struct {
	Schema       relation.Schema
	Versions     int
	Declarations []constraint.Descriptor
	Advice       storage.Advice
	// Physical is the relation's current physical design.
	Physical Physical
}

// Info reports the entry's schema, size, declarations, current advice,
// and physical design.
func (e *Entry) Info() Info {
	var info Info
	_ = e.locked.View(func(r *relation.Relation) error {
		info = Info{
			Schema:       r.Schema(),
			Versions:     r.Len(),
			Declarations: append([]constraint.Descriptor(nil), e.decls...),
			Advice:       e.advice,
			Physical:     e.physicalLocked(),
		}
		return nil
	})
	return info
}

// snapshotTo saves the relation if dirty; reports whether a save happened.
// The shared lock is held for the whole serialization, so the file is a
// consistent cut and writers simply queue behind it.
func (e *Entry) snapshotTo(path string) (bool, error) {
	saved := false
	err := e.locked.View(func(r *relation.Relation) error {
		if !e.dirty.Swap(false) {
			return nil
		}
		// The shared lock excludes every leaf-appending path, so the tree
		// snapshot is the same cut as walLSN: replay past the watermark
		// appends each missing leaf exactly once.
		m := backlog.Meta{
			Decls:  e.decls,
			WALLSN: e.walLSN.Load(),
			Physical: backlog.Physical{
				Org:        uint8(e.advice.Store),
				Source:     e.advice.Source,
				Adopted:    classesToU8(e.adopted),
				Migrations: e.migrations,
			},
			Integrity: e.integritySnapshot(),
		}
		if err := backlog.Save(path, r, m); err != nil {
			e.dirty.Store(true) // retry on the next snapshot
			return err
		}
		saved = true
		return nil
	})
	return saved, err
}
