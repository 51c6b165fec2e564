package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"strconv"

	"mcsquare/internal/fleet"
)

// outcome is what one operation hands to the checks: a digest of its
// simulated outputs plus the raw data the structural checks need.
type outcome struct {
	digest string
	copies []copyCheck     // copy-sweep: destination read back vs source
	fleet  []*fleet.Result // fleet-sweep: one result per Simulate
}

type copyCheck struct{ got, want []byte }

// verify applies the structural checks and, when a digest was recorded
// for this operation, the digest check.
func verify(out outcome, recorded string) error {
	for _, c := range out.copies {
		if !bytes.Equal(c.got, c.want) {
			i := 0
			for i < len(c.got) && i < len(c.want) && c.got[i] == c.want[i] {
				i++
			}
			return fmt.Errorf("destination differs from source at byte %d of %d", i, len(c.want))
		}
	}
	for _, r := range out.fleet {
		if err := conservation(r); err != nil {
			return err
		}
	}
	if recorded != "" && out.digest != recorded {
		return fmt.Errorf("digest %s, recorded %s", out.digest, recorded)
	}
	return nil
}

// conservation checks that every offered request is accounted for once.
func conservation(r *fleet.Result) error {
	rs := r.Resilience
	if sum := r.Completed + rs.TimedOut + rs.Shed + r.Dropped + rs.Failed; sum != r.Offered {
		return fmt.Errorf("%s: offered %d != completed %d + timed out %d + shed %d + dropped %d + failed %d",
			r.Mechanism, r.Offered, r.Completed, rs.TimedOut, rs.Shed, r.Dropped, rs.Failed)
	}
	return nil
}

// digest hashes simulated outputs in a fixed encoding: integers and
// floats by value (floats bit-exact), strings and byte slices with their
// length.
type digest struct {
	h   hash.Hash
	buf [8]byte
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digest) add(vals ...interface{}) {
	for _, v := range vals {
		switch v := v.(type) {
		case uint64:
			d.u64(v)
		case int:
			d.u64(uint64(v))
		case float64:
			d.u64(math.Float64bits(v))
		case string:
			d.u64(uint64(len(v)))
			d.h.Write([]byte(v))
		case []byte:
			d.u64(uint64(len(v)))
			d.h.Write(v)
		case []uint64:
			d.u64(uint64(len(v)))
			for _, x := range v {
				d.u64(x)
			}
		case []float64:
			d.u64(uint64(len(v)))
			for _, x := range v {
				d.u64(math.Float64bits(x))
			}
		default:
			panic(fmt.Sprintf("digest: unsupported %T", v))
		}
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:12]) }

// recordedDigests maps workload → seed → per-operation digests, taken at
// the full benchmark scale. Two seeds are recorded per workload: the
// default one and a held-out one; other seeds get the structural checks
// only.
//
//go:embed digests.json
var recordedJSON []byte

type digestTable map[string]map[string][]string

func loadDigests() (digestTable, error) {
	var t digestTable
	if err := json.Unmarshal(recordedJSON, &t); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return t, nil
}

func (t digestTable) lookup(workload string, seed int64) []string {
	return t[workload][strconv.FormatInt(seed, 10)]
}

// record stores a run's digests in the table file at path.
func record(path, workload string, seed int64, digests []string) error {
	t := digestTable{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &t); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	if t[workload] == nil {
		t[workload] = map[string][]string{}
	}
	t[workload][strconv.FormatInt(seed, 10)] = digests
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
