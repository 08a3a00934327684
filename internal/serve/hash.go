package serve

import (
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"gpp/internal/multilevel"
	"gpp/internal/netlist"
	"gpp/internal/partition"
	"gpp/internal/store"
)

// CircuitHash returns the hex sha256 of the circuit's canonical bytes
// (netlist.AppendCanonical): the content address of everything the solver
// sees. Instance and cell names are excluded — renaming gates does not
// change the solve — while gate/edge order is included, because the
// kernels' fixed reduction order makes a reordered circuit a different
// float computation.
func CircuitHash(c *netlist.Circuit) string {
	return hashCanonical(c.AppendCanonical(nil))
}

func hashCanonical(canon []byte) string {
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:])
}

// keyPrefix opens the hash input of every cache key.
const keyPrefix = "gpp-serve-v1\n"

// circuitRef is a resolved circuit with its content hashes computed once:
// the CircuitHash and the sha256 state after keyPrefix ‖ canonical bytes,
// from which every cache key on this circuit resumes. A ref and its
// circuit are read-only once built — jobs, sweeps and the circuit memo
// share them across goroutines — except for the journal blob key, which
// the first durable accept sets (see saveBlob).
type circuitRef struct {
	circuit  *netlist.Circuit
	hash     string
	keyState []byte // sha256 midstate, crypto/sha256's BinaryMarshaler form

	blobMu  sync.Mutex
	blobKey string // the circuit's JSON blob key once written; "" before
}

// saveBlob stores the circuit's JSON in the blob store and returns its
// content key, the journal's circuit_blob. A ref writes its blob once per
// process: a memo'd circuit is marshaled, hashed and written on its first
// durable accept only, and a failed write is retried by the next accept.
// Concurrent first accepts wait for one write.
func (r *circuitRef) saveBlob(blobs store.Backend) (string, error) {
	r.blobMu.Lock()
	defer r.blobMu.Unlock()
	if r.blobKey != "" {
		return r.blobKey, nil
	}
	data, err := json.Marshal(r.circuit)
	if err != nil {
		return "", err
	}
	key, err := blobs.Put(data)
	if err != nil {
		return "", err
	}
	r.blobKey = key
	return key, nil
}

// newCircuitRef encodes the circuit canonically once and derives both
// hashes from that one encoding.
func newCircuitRef(c *netlist.Circuit) *circuitRef {
	canon := c.AppendCanonical(nil)
	h := sha256.New()
	h.Write([]byte(keyPrefix))
	h.Write(canon)
	state, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic("serve: sha256 state does not marshal: " + err.Error())
	}
	return &circuitRef{circuit: c, hash: hashCanonical(canon), keyState: state}
}

// jobKey derives the content address of one solve on this circuit: the
// circuit's canonical bytes (resumed from the saved midstate, so the key
// is byte-identical to hashing them afresh), the normalized options
// fingerprint (which deliberately excludes Workers/Tracer/TraceCost — see
// partition.Options.Fingerprint), the plane count, the restart count, the
// balanced-rounding slack (absent when plain argmax snapping is used), the
// normalized multilevel knobs (absent for flat solves — a V-cycle's result
// differs from the flat descent's on the same circuit and options), and
// the plan flag. The plan flag must be part of the key because the cached
// body differs with it: a plan=true result embeds the recycling-plan
// section, a plan=false result omits it, and serving one for the other
// would silently drop or invent that section. Any two requests with equal
// keys are guaranteed the same result bytes; the determinism tests hold
// the serve stack to that.
//
// The solver options must already be normalized for k so the fingerprint
// resolves the K-dependent InitStep default, and ml (when set) must
// already be normalized so default spellings collapse to one key.
func (r *circuitRef) jobKey(opts partition.Options, k, restarts int, balanced *float64, ml *multilevel.Options, plan bool) (string, error) {
	fp, err := opts.Fingerprint()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(r.keyState); err != nil {
		panic("serve: sha256 state does not unmarshal: " + err.Error())
	}
	fmt.Fprintf(h, "\n%s|k=%d|restarts=%d", fp, k, restarts)
	if balanced != nil {
		fmt.Fprintf(h, "|balanced=%s", strconv.FormatFloat(*balanced, 'x', -1, 64))
	}
	if ml != nil {
		fmt.Fprintf(h, "|ml=%d,%d,%d,%d", ml.CoarsestSize, ml.MaxLevels, ml.RefineIters, ml.RefinePasses)
	}
	if plan {
		h.Write([]byte("|plan=true"))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// jobKey is circuitRef.jobKey for a circuit that has no ref yet.
func jobKey(c *netlist.Circuit, opts partition.Options, k, restarts int, balanced *float64, ml *multilevel.Options, plan bool) (string, error) {
	return newCircuitRef(c).jobKey(opts, k, restarts, balanced, ml, plan)
}
