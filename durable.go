package streamhull

import "fmt"

// Checkpoint encodes a summary's checkpoint payload: the bytes that
// replace a durable stream's log prefix, decoded by SummaryFromCheckpoint.
// Windowed summaries seal their full exponential-histogram bucket state
// (MarshalState), which loses nothing; adaptive and uniform summaries
// seal their O(r) binary Snapshot (§4–§5: the sample stands in for the
// whole prefix). Every other kind has no faithful compact capture, so ok
// is false and its stream keeps the whole log.
func Checkpoint(sum Summary) (data []byte, ok bool, err error) {
	switch s := sum.(type) {
	case *WindowedHull:
		data, err = s.MarshalState()
	case *AdaptiveHull:
		data, err = s.Snapshot().MarshalBinary()
	case *UniformHull:
		data, err = s.Snapshot().MarshalBinary()
	default:
		return nil, false, nil
	}
	return data, true, err
}

// SummaryFromCheckpoint restores a summary from a checkpoint payload:
// a windowed-state JSON document for windowed streams, a binary
// Snapshot for everything else. It is the one decoder for checkpoint
// payloads: store recovery rebuilds from it, and the server re-bases a
// live summary through it right after sealing, so both agree on what a
// checkpoint means.
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
