package store

import (
	"fmt"

	streamhull "github.com/streamgeom/streamhull"
	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/wal"
)

// Recovered is the result of rebuilding a stream's summary from its
// persisted state (Load, LoadDir): the summary plus what the rebuild
// consumed.
type Recovered struct {
	Summary streamhull.Summary
	Spec    streamhull.Spec // summary description from the stream's meta

	HasCheckpoint bool // a checkpoint payload seeded the summary
	Segments      int  // log segments replayed after the checkpoint
	Records       int  // log records replayed after the checkpoint
	Points        int  // log points replayed
	Torn          bool // a record torn by a crash was dropped
}

// LoadDir rebuilds a stream summary from one fswal stream directory:
// the latest checkpoint first, then the surviving log tail, tolerating
// a final record torn by a crash. The stream's Spec (from the meta
// sidecar) says what to build, so every summary kind recovers. It is
// the one recovery path — fswal's Load runs it for the server at
// startup and on rehydration, and `hullcli replay` runs it offline, so
// both always agree on what a directory contains.
func LoadDir(dir string) (*Recovered, error) {
	meta, err := wal.LoadMeta(dir)
	if err != nil {
		return nil, err
	}
	spec, err := specFromMeta(meta)
	if err != nil {
		return nil, fmt.Errorf("stream meta: %w", err)
	}
	rec, err := wal.StartRecovery(dir)
	if err != nil {
		return nil, err
	}
	return rebuild(spec, rec.Snapshot(), rec.Replay)
}

// rebuild is the one recovery body both stores run: decode the
// checkpoint payload (streamhull.SummaryFromCheckpoint) or, with none,
// build a fresh summary from the spec, then replay the log tail
// batch-at-a-time through InsertBatch, exactly as the server ingested
// it. Recovery of a checkpointed stream is therefore bit-exact for
// every kind whose state does not depend on wall-clock arrival times.
// The one exception is the un-checkpointed tail of a TIME-windowed
// stream: the log does not record arrival times, so replayed tail
// points are stamped at recovery time and can linger up to one extra
// window before aging out — coverage errs on the side of keeping data,
// and checkpointed buckets keep their true timestamps. Count windows
// recover bit-exactly.
//
// replay feeds each surviving batch to its argument in log order and
// reports what it fed.
func rebuild(spec streamhull.Spec, ckpt []byte,
	replay func(insert func([]geom.Point) error) (wal.Info, error)) (*Recovered, error) {
	var sum streamhull.Summary
	var err error
	if ckpt != nil {
		if sum, err = streamhull.SummaryFromCheckpoint(spec, ckpt); err != nil {
			return nil, err
		}
	} else if sum, err = streamhull.New(spec); err != nil {
		return nil, fmt.Errorf("stream meta: %w", err)
	}
	info, err := replay(func(pts []geom.Point) error {
		_, err := sum.InsertBatch(pts)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &Recovered{
		Summary: sum, Spec: spec, HasCheckpoint: ckpt != nil,
		Segments: info.Segments, Records: info.Records, Points: info.Points, Torn: info.Torn,
	}, nil
}
