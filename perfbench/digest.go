package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
)

// digest hashes the identity and outcome of ops, so two runs at one seed
// can be shown to have done identical work and a repeated op can be
// checked against its first execution.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) str(s string) *digest {
	d.int(int64(len(s)))
	d.h.Write([]byte(s))
	return d
}

func (d *digest) int(v int64) *digest {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	d.h.Write(buf[:])
	return d
}

func (d *digest) ints(xs []int) *digest {
	d.int(int64(len(xs)))
	for _, x := range xs {
		d.int(int64(x))
	}
	return d
}

func (d *digest) bytes(b []byte) *digest {
	d.int(int64(len(b)))
	d.h.Write(b)
	return d
}

func (d *digest) sum() [32]byte {
	var out [32]byte
	copy(out[:], d.h.Sum(nil))
	return out
}

// hexSum is the printable form of a run digest.
func (d *digest) hexSum() string { return hex.EncodeToString(d.h.Sum(nil)) }
