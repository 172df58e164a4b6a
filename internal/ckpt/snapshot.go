package ckpt

// Snapshot is an in-memory checkpoint: the same payload a sealed
// STMSCKPT file carries, held as bytes so one simulation can fork
// another without a file round-trip. The sampling scheduler uses it to
// hand warmed simulator state to K window goroutines.
//
// A Snapshot is immutable after construction and safe for concurrent
// readers: Decoder returns a fresh Decoder per call, and Decoder reads
// never mutate the payload (Bytes copies out).
type Snapshot struct {
	payload []byte
}

// NewSnapshot captures an encoder's payload as an immutable in-memory
// snapshot. The payload is copied, so the encoder may be reused.
func NewSnapshot(e *Encoder) *Snapshot {
	p := make([]byte, len(e.Payload()))
	copy(p, e.Payload())
	return &Snapshot{payload: p}
}

// SnapshotOf wraps raw payload bytes (copying them) as a Snapshot.
func SnapshotOf(payload []byte) *Snapshot {
	p := make([]byte, len(payload))
	copy(p, payload)
	return &Snapshot{payload: p}
}

// Len returns the payload size in bytes.
func (s *Snapshot) Len() int { return len(s.payload) }

// Decoder returns a fresh decoder over the snapshot's payload. Each
// call starts from offset zero, so any number of goroutines can decode
// the same snapshot independently.
func (s *Snapshot) Decoder() *Decoder { return NewDecoder(s.payload) }

// OpenSnapshot verifies a sealed container and wraps its payload as an
// in-memory snapshot.
func OpenSnapshot(data []byte) (*Snapshot, error) {
	payload, err := Open(data)
	if err != nil {
		return nil, err
	}
	return SnapshotOf(payload), nil
}
