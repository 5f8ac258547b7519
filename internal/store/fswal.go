package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"

	streamhull "github.com/streamgeom/streamhull"
	"github.com/streamgeom/streamhull/internal/wal"
)

// ErrNotFound is returned by Open/Load/Delete for a key the store has
// no stream for.
var ErrNotFound = errors.New("store: stream not found")

// ErrExists is returned by Create for a key that already has storage.
var ErrExists = errors.New("store: stream already exists")

// muxMarker names the marker file at the root of a data directory
// written by the removed muxwal backend (one shared group-commit WAL
// for every stream). fswal cannot read that layout, so it refuses the
// directory instead of silently serving it as empty.
const muxMarker = "MUXSTORE"

// fswal is the durable storage layout: one directory per stream under
// the root, holding that stream's segmented WAL, meta sidecar, and
// checkpoint (internal/wal). Extracting it behind Store adds nothing
// to the on-disk format — a data directory written before this package
// existed opens exactly as it always did, and a directory this backend
// writes is readable by the pre-store code and by `hullcli replay`.
type fswal struct {
	dir  string
	opts Options
}

func openFSWAL(dir string, opts Options) (Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	if _, err := os.Stat(filepath.Join(dir, muxMarker)); err == nil {
		return nil, fmt.Errorf("store: %s holds a muxwal store, which is no longer supported; "+
			"migrate it by snapshotting or re-ingesting its streams through a server that predates muxwal's removal", dir)
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.DiscardHandler)
	}
	return &fswal{dir: dir, opts: opts}, nil
}

func (s *fswal) streamDir(key string) string {
	return filepath.Join(s.dir, EncodeDir(key))
}

func (s *fswal) List() ([]Entry, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: scanning %s: %w", s.dir, err)
	}
	var out []Entry
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		key, ok := DecodeDir(e.Name())
		if !ok {
			s.opts.Logger.Warn("store: skipping unrecognized directory", "dir", e.Name())
			continue
		}
		meta, err := wal.LoadMeta(filepath.Join(s.dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("store: stream %q: %w", key, err)
		}
		spec, err := specFromMeta(meta)
		if err != nil {
			return nil, fmt.Errorf("store: stream %q meta: %w", key, err)
		}
		out = append(out, Entry{Key: key, Tenant: splitTenant(key), Spec: spec})
	}
	return out, nil
}

func (s *fswal) Create(key string, spec streamhull.Spec) (Appender, error) {
	meta, err := MetaForSpec(spec)
	if err != nil {
		return nil, err
	}
	dir := s.streamDir(key)
	if _, err := os.Stat(filepath.Join(dir, "meta.json")); err == nil {
		return nil, fmt.Errorf("store: stream %q: %w", key, ErrExists)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating stream storage: %w", err)
	}
	if err := wal.SaveMeta(dir, meta); err != nil {
		return nil, err
	}
	return wal.Open(dir, s.opts)
}

func (s *fswal) Open(key string) (Appender, error) {
	dir, err := s.existingDir(key)
	if err != nil {
		return nil, err
	}
	return wal.Open(dir, s.opts)
}

func (s *fswal) Load(key string) (*Recovered, error) {
	dir, err := s.existingDir(key)
	if err != nil {
		return nil, err
	}
	return LoadDir(dir)
}

// existingDir returns the directory of a stream that has storage:
// ErrNotFound when its meta sidecar is missing.
func (s *fswal) existingDir(key string) (string, error) {
	dir := s.streamDir(key)
	if _, err := os.Stat(filepath.Join(dir, "meta.json")); err != nil {
		if os.IsNotExist(err) {
			return "", fmt.Errorf("store: stream %q: %w", key, ErrNotFound)
		}
		return "", fmt.Errorf("store: stream %q: %w", key, err)
	}
	return dir, nil
}

func (s *fswal) Delete(key string) error {
	dir := s.streamDir(key)
	if _, err := os.Stat(dir); err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("store: stream %q: %w", key, ErrNotFound)
		}
		return fmt.Errorf("store: stream %q: %w", key, err)
	}
	if err := os.RemoveAll(dir); err != nil {
		return fmt.Errorf("store: removing stream %q: %w", key, err)
	}
	return nil
}

func (s *fswal) Close() error { return nil }

// MetaForSpec builds the WAL meta sidecar for a stream spec: the spec
// JSON itself plus the legacy algo/r head fields.
func MetaForSpec(spec streamhull.Spec) (wal.Meta, error) {
	if err := spec.Validate(); err != nil {
		return wal.Meta{}, err
	}
	data, err := json.Marshal(spec)
	if err != nil {
		return wal.Meta{}, fmt.Errorf("store: encoding spec: %w", err)
	}
	return wal.Meta{Algo: string(spec.Kind), R: spec.R, Spec: data}, nil
}

// specFromMeta recovers a stream's Spec from its WAL meta sidecar. A
// directory written before specs existed has only the algo/r head: algo
// "" means adaptive, exact drops r, and the other sampling kinds keep it.
// A pre-spec meta cannot name a window, so windowed (like any unknown
// algo) is rejected.
func specFromMeta(meta wal.Meta) (streamhull.Spec, error) {
	if len(meta.Spec) > 0 {
		return streamhull.ParseSpec(string(meta.Spec))
	}
	spec := streamhull.Spec{Kind: streamhull.Kind(meta.Algo), R: meta.R}
	switch spec.Kind {
	case "":
		spec.Kind = streamhull.KindAdaptive
	case streamhull.KindAdaptive, streamhull.KindUniform, streamhull.KindFanIn:
	case streamhull.KindExact:
		spec.R = 0
	default:
		return streamhull.Spec{}, fmt.Errorf("store: pre-spec meta names algo %q (want adaptive, uniform, exact, or fanin)", meta.Algo)
	}
	return spec, spec.Validate()
}
