// Package store is the storage-engine subsystem behind the stream
// server: one Store interface, so the serving layer and its cold tier
// never touch files directly. It has two implementations:
//
//   - fswal (Open): the one durable layout — one directory per stream
//     holding a segmented write-ahead log, a meta sidecar and a
//     checkpoint file (internal/wal). Data directories written before
//     this package existed open unchanged, and `hullcli replay` reads
//     any stream directory it writes through LoadDir.
//   - memory (NewMemory): everything in process memory, for tests and
//     experiments that inject it through server.Config.Store.
//
// The unit both agree on is the paper's O(r) checkpoint: a summary
// compacts to a few hundred bytes that fully replace its log prefix
// (Hershberger–Suri §4–§5), so "park an idle stream" is cheap — seal a
// checkpoint, drop the live summary, and Load rebuilds it bit-exactly
// later.
//
// Contract notes shared by both:
//
//   - Keys are tenant-qualified stream ids; the store makes them
//     filesystem-safe itself.
//   - Load is read-only and repeatable: calling it twice without
//     intervening appends yields summaries with identical state.
//   - Appenders hand out by Create/Open are owned by the caller; Close
//     releases the handle (fswal: the per-stream log's file descriptor)
//     without deleting anything — that is the eviction path. Delete
//     removes the stream's storage entirely.
//   - Checkpoint payloads are opaque bytes to the Appender; they are
//     produced by streamhull.Checkpoint (snapshot binary, or windowed
//     bucket state) and decoded by streamhull.SummaryFromCheckpoint.
//   - Both Loads run one rebuild body (recover.go): the checkpoint or a
//     fresh summary from the spec, then the log tail through
//     InsertBatch, exactly as ingest applied it. It reads no clock
//     (the noclock analyzer checks the file).
package store

import (
	"fmt"
	"time"

	streamhull "github.com/streamgeom/streamhull"
	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/wal"
)

// Options parameterizes the fswal store: they are the options of each
// stream's write-ahead log. The zero value means 4 MiB segments and
// interval fsync at 50ms; Logger also receives the store's own
// warnings.
type Options = wal.Options

// Entry is one stream a Store knows about: its key plus the spec and
// tenant from the stream's persisted meta. Tenant is derived from the
// key ("tenant/id"; bare ids belong to the root tenant).
type Entry struct {
	Key    string
	Tenant string
	Spec   streamhull.Spec
}

// Appender is a caller-owned handle for appending to one stream's log.
// wal.Log satisfies it directly, so the fswal backend hands out the
// real thing.
type Appender interface {
	// Append logs a point batch; durability follows the sync policy.
	Append(pts []geom.Point) error
	// AppendTimed is Append with its write and fsync-wait halves timed
	// separately, for the request tracer's stage spans.
	AppendTimed(pts []geom.Point) (write, syncWait time.Duration, err error)
	// Checkpoint durably records snap as the stream's restart state and
	// compacts the log records it covers.
	Checkpoint(snap []byte) error
	// SyncLag reports how long the oldest unfsynced append has waited.
	SyncLag() time.Duration
	// Close releases the handle; appended data stays on disk. The
	// stream can be reopened with Store.Open.
	Close() error
}

// Store is a storage engine holding many streams' durable state.
// Implementations are safe for concurrent use; the per-stream ordering
// of Append vs Checkpoint is the caller's job (the server holds its
// stream lock across both).
type Store interface {
	// List enumerates every stream in the store. It reads metas only —
	// no summary is rebuilt — so listing millions of streams stays
	// cheap.
	List() ([]Entry, error)
	// Create initializes storage for a new stream and returns its
	// appender. Creating an existing key is an error.
	Create(key string, spec streamhull.Spec) (Appender, error)
	// Open returns an appender for an existing stream (the rehydration
	// path). Opening an unknown key is an error.
	Open(key string) (Appender, error)
	// Load rebuilds the stream's summary: checkpoint first, then the
	// surviving log tail. Read-only; safe to call with or without an
	// open appender.
	Load(key string) (*Recovered, error)
	// Delete removes the stream's storage entirely. The caller closes
	// any appender first.
	Delete(key string) error
	// Close releases store-wide resources. Callers close per-stream
	// appenders themselves; fswal's Close is a no-op.
	Close() error
}

// Open opens (creating if needed) the fswal store rooted at dir.
// backend must be "" or "fswal", the only durable layout; the
// in-memory store comes from NewMemory.
func Open(backend, dir string, opts Options) (Store, error) {
	if backend != "" && backend != "fswal" {
		return nil, fmt.Errorf("store: unknown backend %q (want fswal)", backend)
	}
	return openFSWAL(dir, opts)
}

// splitTenant derives the tenant from a tenant-qualified key
// ("tenant/id"; a bare id is the root tenant "").
func splitTenant(key string) string {
	for i := 0; i < len(key); i++ {
		if key[i] == '/' {
			return key[:i]
		}
	}
	return ""
}
