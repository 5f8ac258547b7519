package streamhull

import (
	"encoding/json"
	"fmt"

	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/wal"
)

// WALRecovery is the result of rebuilding a summary from a durable
// stream directory (as written by the HTTP server's write-ahead log).
type WALRecovery struct {
	Summary Summary
	Spec    Spec   // summary description from the stream's meta
	Algo    string // legacy head field (== string(Spec.Kind))
	R       int    // legacy head field (== Spec.R)

	HasCheckpoint bool // a checkpoint payload seeded the summary
	Segments      int  // log segments replayed after the checkpoint
	Records       int  // log records replayed
	Points        int  // log points replayed
	Torn          bool // a record torn by a crash was dropped
}

// MetaForSpec builds the WAL meta sidecar for a stream spec: the spec
// JSON itself plus the legacy algo/r head fields.
func MetaForSpec(spec Spec) (wal.Meta, error) {
	if err := spec.Validate(); err != nil {
		return wal.Meta{}, err
	}
	data, err := json.Marshal(spec)
	if err != nil {
		return wal.Meta{}, fmt.Errorf("streamhull: encoding spec: %w", err)
	}
	return wal.Meta{Algo: string(spec.Kind), R: spec.R, Spec: data}, nil
}

// SpecFromMeta recovers a stream's Spec from its WAL meta sidecar,
// falling back to the legacy algo/r head fields for directories written
// before specs existed.
func SpecFromMeta(meta wal.Meta) (Spec, error) {
	if len(meta.Spec) > 0 {
		return ParseSpec(string(meta.Spec))
	}
	return SpecFor(meta.Algo, meta.R, "")
}

// RecoverFromWAL rebuilds a stream summary from its write-ahead-log
// directory: the latest checkpoint first, then the surviving log tail,
// tolerating a final record torn by a crash. The stream's Spec (from
// the meta sidecar) says what to build, so every summary kind recovers
// — windowed streams restore their full bucket structure from a
// windowed-state checkpoint, everything else restores from a Snapshot.
// The log tail is replayed batch-at-a-time through InsertBatch, exactly
// as the server ingested it, so recovery of a checkpointed stream is
// bit-exact for every kind whose state does not depend on wall-clock
// arrival times. The one exception is the un-checkpointed tail of a
// TIME-windowed stream: the log does not record arrival times, so
// replayed tail points are stamped at recovery time and can linger up
// to one extra window before aging out — coverage errs on the side of
// keeping data (the window always covers at least what it should),
// and checkpointed buckets keep their true timestamps. Count windows
// recover bit-exactly. It is the one recovery path — the HTTP server
// uses it at startup and hullcli's replay subcommand uses it offline,
// so both always agree on what a directory contains.
func RecoverFromWAL(dir string) (*WALRecovery, error) {
	meta, err := wal.LoadMeta(dir)
	if err != nil {
		return nil, err
	}
	spec, err := SpecFromMeta(meta)
	if err != nil {
		return nil, fmt.Errorf("stream meta: %w", err)
	}
	rec, err := wal.StartRecovery(dir)
	if err != nil {
		return nil, err
	}
	var sum Summary
	if data := rec.Snapshot(); data != nil {
		if sum, err = SummaryFromCheckpoint(spec, data); err != nil {
			return nil, err
		}
	} else if sum, err = New(spec); err != nil {
		return nil, fmt.Errorf("stream meta: %w", err)
	}
	info, err := rec.Replay(func(pts []geom.Point) error {
		_, err := sum.InsertBatch(pts)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &WALRecovery{
		Summary: sum, Spec: spec, Algo: string(spec.Kind), R: spec.R,
		HasCheckpoint: info.HasSnapshot, Segments: info.Segments,
		Records: info.Records, Points: info.Points, Torn: info.Torn,
	}, nil
}

// SummaryFromCheckpoint restores a summary from a checkpoint payload:
// a windowed-state JSON document for windowed streams, a binary
// Snapshot for everything else. It is the one decoder for checkpoint
// payloads, shared by the fswal recovery path above and the in-memory
// store in internal/store, so both agree on what a checkpoint means.
func SummaryFromCheckpoint(spec Spec, data []byte) (Summary, error) {
	if spec.Kind == KindWindowed {
		if !specJSONPrefix(data) {
			return nil, fmt.Errorf("decoding checkpoint: windowed stream has a non-windowed checkpoint")
		}
		sum, err := NewWindowedFromState(spec, data, nil)
		if err != nil {
			return nil, fmt.Errorf("restoring checkpoint: %w", err)
		}
		return sum, nil
	}
	var snap Snapshot
	if err := snap.UnmarshalBinary(data); err != nil {
		return nil, fmt.Errorf("decoding checkpoint: %w", err)
	}
	if string(spec.Kind) != snap.Kind {
		// Files copied between streams, or corruption: the served
		// summary would disagree with the stream's self-description.
		// Fail loudly rather than quietly building the wrong kind.
		return nil, fmt.Errorf("decoding checkpoint: checkpoint is a %q snapshot but the stream meta says %q",
			snap.Kind, spec.Kind)
	}
	if snap.Spec == nil {
		// Pre-spec checkpoint: the meta's spec is the authority.
		snap.Spec = &spec
	}
	sum, err := SummaryFromSnapshot(snap)
	if err != nil {
		return nil, fmt.Errorf("restoring checkpoint: %w", err)
	}
	return sum, nil
}
