package store

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	streamhull "github.com/streamgeom/streamhull"
	"github.com/streamgeom/streamhull/geom"
	"github.com/streamgeom/streamhull/internal/wal"
)

// memory keeps every stream's log and checkpoint in process memory —
// the lifecycle of the durable store (data survives an appender
// Close, checkpoints supersede batches, Load replays) without any
// disk, for tests and experiments that exercise the cold tier.
type memory struct {
	mu      sync.Mutex
	streams map[string]*memStream
	closed  bool
}

type memStream struct {
	spec    streamhull.Spec
	batches [][]geom.Point
	ckpt    []byte // nil until the first checkpoint
}

// NewMemory returns an empty in-memory store.
func NewMemory() Store {
	return &memory{streams: make(map[string]*memStream)}
}

func (s *memory) List() ([]Entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Entry, 0, len(s.streams))
	for key, ms := range s.streams {
		out = append(out, Entry{Key: key, Tenant: splitTenant(key), Spec: ms.spec})
	}
	return out, nil
}

func (s *memory) Create(key string, spec streamhull.Spec) (Appender, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.streams[key] != nil {
		return nil, fmt.Errorf("store: stream %q: %w", key, ErrExists)
	}
	s.streams[key] = &memStream{spec: spec}
	return &memAppender{s: s, key: key}, nil
}

func (s *memory) Open(key string) (Appender, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.streams[key] == nil {
		return nil, fmt.Errorf("store: stream %q: %w", key, ErrNotFound)
	}
	return &memAppender{s: s, key: key}, nil
}

func (s *memory) Load(key string) (*Recovered, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ms := s.streams[key]
	if ms == nil {
		return nil, fmt.Errorf("store: stream %q: %w", key, ErrNotFound)
	}
	rec, err := rebuild(ms.spec, ms.ckpt, func(insert func([]geom.Point) error) (wal.Info, error) {
		var info wal.Info
		for _, pts := range ms.batches {
			if err := insert(pts); err != nil {
				return info, fmt.Errorf("replay: %w", err)
			}
			info.Records++
			info.Points += len(pts)
		}
		return info, nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: stream %q: %w", key, err)
	}
	return rec, nil
}

func (s *memory) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.streams[key] == nil {
		return fmt.Errorf("store: stream %q: %w", key, ErrNotFound)
	}
	delete(s.streams, key)
	return nil
}

func (s *memory) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

type memAppender struct {
	s   *memory
	key string
}

func (a *memAppender) Append(pts []geom.Point) error {
	_, _, err := a.AppendTimed(pts)
	return err
}

func (a *memAppender) AppendTimed(pts []geom.Point) (write, syncWait time.Duration, err error) {
	if len(pts) == 0 {
		return 0, 0, nil
	}
	a.s.mu.Lock()
	defer a.s.mu.Unlock()
	ms := a.s.streams[a.key]
	if ms == nil {
		return 0, 0, fmt.Errorf("store: stream %q: %w", a.key, ErrNotFound)
	}
	ms.batches = append(ms.batches, append([]geom.Point(nil), pts...))
	return 0, 0, nil
}

func (a *memAppender) Checkpoint(snap []byte) error {
	a.s.mu.Lock()
	defer a.s.mu.Unlock()
	ms := a.s.streams[a.key]
	if ms == nil {
		return fmt.Errorf("store: stream %q: %w", a.key, ErrNotFound)
	}
	ms.ckpt = bytes.Clone(snap)
	ms.batches = nil
	return nil
}

func (a *memAppender) SyncLag() time.Duration { return 0 }

func (a *memAppender) Close() error { return nil }
