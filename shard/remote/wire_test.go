package remote

// Wire protocol tests: every message round-trips bit-exactly, and decoding
// rejects truncation, trailing garbage, wrong tags and corrupt length
// prefixes instead of misparsing them.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"digitaltraces"
	"digitaltraces/shard"
)

func wireVisits() []digitaltraces.Visit {
	return []digitaltraces.Visit{
		{Venue: "venue-0", Start: time.Unix(0, 3600e9).UTC(), End: time.Unix(0, 7200e9).UTC()},
		{Venue: "", Start: time.Unix(0, 0).UTC(), End: time.Unix(0, 1).UTC()},
		{Venue: "venue with spaces\x00and bytes", Start: time.Unix(0, 123456789).UTC(), End: time.Unix(0, 987654321).UTC()},
	}
}

func wireMatches() []digitaltraces.Match {
	return []digitaltraces.Match{
		{Entity: "e001", Degree: 1},
		{Entity: "e002", Degree: 0.4999999999999999}, // must survive bit-exactly
		{Entity: "e003", Degree: 0},
		{Entity: "e004", Degree: math.SmallestNonzeroFloat64},
	}
}

// roundTrips enumerates every message type as (encoded bytes, re-encode of
// the decode) so one table drives round-trip, truncation and garbage tests.
func roundTrips(t *testing.T) map[string][]byte {
	t.Helper()
	msgs := map[string][]byte{}

	mask := shard.DefaultSlotMap(3).Owned(1)
	rr := shard.RankRequest{Entity: "e007", Want: 11, Owned: mask}
	msgs["rankReq/entity"] = encodeRankReq(rr)
	if got, err := decodeRankReq(msgs["rankReq/entity"]); err != nil || !reflect.DeepEqual(got, rr) {
		t.Fatalf("rankReq entity round trip: %+v, %v", got, err)
	}
	rr2 := shard.RankRequest{Visits: wireVisits(), Want: 3, Floor: 0.375, Owned: mask}
	msgs["rankReq/visits"] = encodeRankReq(rr2)
	if got, err := decodeRankReq(msgs["rankReq/visits"]); err != nil || len(got.Visits) != 3 || got.Visits[2].Venue != rr2.Visits[2].Venue || !got.Visits[0].Start.Equal(rr2.Visits[0].Start) ||
		got.Want != 3 || got.Floor != 0.375 || got.Owned != mask {
		t.Fatalf("rankReq visits round trip: %+v, %v", got, err)
	}

	rs := rankResp{Ranked: digitaltraces.Ranked{Matches: wireMatches(), Keys: []uint32{3, 0, math.MaxUint32, 1 << 20}, Visits: wireVisits(), Bound: 0.25, Capped: true, Checked: 12, Generation: 7},
		State: shardState{Entities: 10, Generation: 7, GenOK: true}}
	msgs["rankResp"] = encodeRankResp(rs)
	got, err := decodeRankResp(msgs["rankResp"])
	if err != nil || len(got.Visits) != 3 || len(got.Matches) != 4 || !reflect.DeepEqual(got.Keys, rs.Keys) || got.Bound != 0.25 || !got.Capped || got.Checked != 12 || got.Generation != 7 || got.State != rs.State {
		t.Fatalf("rankResp round trip: %+v, %v", got, err)
	}
	for i, m := range got.Matches {
		if m != rs.Matches[i] {
			t.Fatalf("rankResp match %d: %+v != %+v (degrees must survive bit-exactly)", i, m, rs.Matches[i])
		}
	}

	msgs["visitsOfReq"] = encodeVisitsOfReq(visitsOfReq{Entity: "e001"})
	if got, err := decodeVisitsOfReq(msgs["visitsOfReq"]); err != nil || got.Entity != "e001" {
		t.Fatalf("visitsOfReq round trip: %+v, %v", got, err)
	}

	msgs["visitsOfResp"] = encodeVisitsOfResp(visitsOfResp{Visits: wireVisits(), State: shardState{Entities: 1}})
	if got, err := decodeVisitsOfResp(msgs["visitsOfResp"]); err != nil || len(got.Visits) != 3 {
		t.Fatalf("visitsOfResp round trip: %+v, %v", got, err)
	}

	ir := ingestReq{Records: []digitaltraces.VisitRecord{
		{Entity: "e1", Venue: "v1", Start: time.Unix(0, 1e9).UTC(), End: time.Unix(0, 2e9).UTC()},
		{Entity: "e2", Venue: "v2", Start: time.Unix(0, 3e9).UTC(), End: time.Unix(0, 4e9).UTC()},
	}, Keys: []uint32{7, math.MaxUint32}}
	msgs["ingestReq"] = encodeIngestReq(ir)
	if got, err := decodeIngestReq(msgs["ingestReq"]); err != nil || len(got.Records) != 2 || got.Records[1] != ir.Records[1] || !reflect.DeepEqual(got.Keys, ir.Keys) {
		t.Fatalf("ingestReq round trip: %+v, %v", got, err)
	}

	iresp := ingestResp{Stored: 1, FailIndex: 1, ErrMsg: `unknown venue "nope"`, State: shardState{Entities: 2}}
	msgs["ingestResp"] = encodeIngestResp(iresp)
	if got, err := decodeIngestResp(msgs["ingestResp"]); err != nil || got != iresp {
		t.Fatalf("ingestResp round trip: %+v, %v", got, err)
	}

	return msgs
}

func TestWireRoundTrip(t *testing.T) {
	roundTrips(t)
}

// decodeAny picks the decoder matching the table key.
func decodeAny(name string, b []byte) error {
	var err error
	switch name {
	case "rankReq/entity", "rankReq/visits":
		_, err = decodeRankReq(b)
	case "rankResp":
		_, err = decodeRankResp(b)
	case "visitsOfReq":
		_, err = decodeVisitsOfReq(b)
	case "visitsOfResp":
		_, err = decodeVisitsOfResp(b)
	case "ingestReq":
		_, err = decodeIngestReq(b)
	case "ingestResp":
		_, err = decodeIngestResp(b)
	default:
		panic("unknown message " + name)
	}
	return err
}

// TestWireTruncationRejected: every strict prefix of every message must fail
// to decode — a lost TCP tail can never silently shrink a result set.
func TestWireTruncationRejected(t *testing.T) {
	for name, msg := range roundTrips(t) {
		for cut := 0; cut < len(msg); cut++ {
			if err := decodeAny(name, msg[:cut]); err == nil {
				t.Errorf("%s: %d-byte prefix of %d decoded without error", name, cut, len(msg))
			}
		}
	}
}

// TestWireGarbageRejected: trailing bytes, wrong tags and corrupt payloads
// are all rejected.
func TestWireGarbageRejected(t *testing.T) {
	for name, msg := range roundTrips(t) {
		if err := decodeAny(name, append(bytes.Clone(msg), 0x00)); err == nil {
			t.Errorf("%s: trailing byte accepted", name)
		}
		wrong := bytes.Clone(msg)
		wrong[0] ^= 0x40 // flip the tag
		if err := decodeAny(name, wrong); err == nil {
			t.Errorf("%s: wrong message tag accepted", name)
		}
		if err := decodeAny(name, nil); err == nil {
			t.Errorf("%s: empty message accepted", name)
		}
	}
	// A length prefix claiming more than the wire caps must be rejected
	// before any allocation.
	huge := []byte{tagVisitsOfReq, 0xff, 0xff, 0xff, 0xff, 0x7f} // uvarint ≈ 34 GB string
	if _, err := decodeVisitsOfReq(huge); err == nil {
		t.Error("oversized string length accepted")
	}
	hugeList := append([]byte{tagIngestReq}, 0xff, 0xff, 0xff, 0xff, 0x7f)
	if _, err := decodeIngestReq(hugeList); err == nil {
		t.Error("oversized list length accepted")
	}
	// Random-ish garbage across all decoders.
	junk := []byte{0x9b, 0x01, 0x02, 0x03, 0xff, 0xfe}
	for _, name := range []string{"rankReq/entity", "rankResp", "ingestResp"} {
		if err := decodeAny(name, junk); err == nil {
			t.Errorf("%s: garbage accepted", name)
		}
	}
	// Rank arguments out of range: a want no response could carry or none,
	// floors outside the degree range, and a padded uvarint.
	for _, m := range []shard.RankRequest{{Want: maxWireList + 1}, {Want: 0}, {Want: 1, Floor: -0.5}, {Want: 1, Floor: 1.5}, {Want: 1, Floor: math.NaN()}} {
		if _, err := decodeRankReq(encodeRankReq(m)); err == nil {
			t.Errorf("rank request %+v accepted", m)
		}
	}
	if _, err := decodeVisitsOfReq([]byte{tagVisitsOfReq, 0x81, 0x00, 'e'}); err == nil {
		t.Error("non-canonical uvarint length accepted")
	}
	// A tie key past 32 bits: the record's last field.
	one := encodeIngestReq(ingestReq{Records: []digitaltraces.VisitRecord{{Entity: "e"}}, Keys: []uint32{0}})
	if _, err := decodeIngestReq(binary.AppendUvarint(one[:len(one)-1], 1<<32)); err == nil || !strings.Contains(err.Error(), "tie key") {
		t.Errorf("a 33-bit tie key: %v, want it refused", err)
	}
}

// TestWireBoolStrict pins that bools reject bytes other than 0/1 (a
// corrupted flag must not silently read as true).
func TestWireBoolStrict(t *testing.T) {
	msg := encodeRankResp(rankResp{Ranked: digitaltraces.Ranked{Bound: 0.5, Capped: true, Checked: 1}})
	// The Capped bool sits right after the empty visit and match lists and
	// the bound.
	idx := 1 + 1 + 1 + 8 // tag, visits=0, matches=0, bound
	if msg[idx] != 1 {
		t.Fatalf("test layout drifted: byte %d = %#x, want Capped=1", idx, msg[idx])
	}
	msg[idx] = 2
	if _, err := decodeRankResp(msg); err == nil {
		t.Error("bool byte 2 accepted")
	}
}

// TestWireFloatBitExact pins degree transport through the wire encoding for
// adversarial bit patterns (negative zero, subnormals, 1-ulp-below-1).
func TestWireFloatBitExact(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, math.Nextafter(1, 0), math.SmallestNonzeroFloat64, 0.1 + 0.2}
	for _, v := range vals {
		ms := []digitaltraces.Match{{Entity: "e", Degree: v}}
		got, err := decodeRankResp(encodeRankResp(rankResp{Ranked: digitaltraces.Ranked{Matches: ms, Keys: []uint32{0}, Bound: v}}))
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Matches[0].Degree) != math.Float64bits(v) || math.Float64bits(got.Bound) != math.Float64bits(v) {
			t.Errorf("degree %v (bits %#x) did not survive bit-exactly: got %v (bits %#x)",
				v, math.Float64bits(v), got.Matches[0].Degree, math.Float64bits(got.Matches[0].Degree))
		}
	}
}

// TestWireTagsDistinct guards against two messages sharing a tag byte.
func TestWireTagsDistinct(t *testing.T) {
	tags := []byte{tagRankReq, tagRankResp, tagVisitsOfReq, tagVisitsOfResp, tagIngestReq, tagIngestResp}
	seen := map[byte]bool{}
	for _, tag := range tags {
		if seen[tag] {
			t.Fatalf("duplicate message tag %#x", tag)
		}
		seen[tag] = true
	}
	if len(seen) != 6 {
		t.Fatalf("expected 6 distinct tags, got %d", len(seen))
	}
}

// FuzzWireDecode feeds arbitrary bytes to every decoder: each returns a
// value or an error and never panics, and a message that decodes re-encodes
// to exactly the bytes it came from. The seed corpus under
// testdata/fuzz/FuzzWireDecode holds one valid message of every type.
//
//	go test -run=^$ -fuzz=FuzzWireDecode -fuzztime=15s ./shard/remote/
func FuzzWireDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		check := func(name string, err error, reencode func() []byte) {
			if err == nil && !bytes.Equal(reencode(), b) {
				t.Fatalf("%s: decoded message re-encodes to\n%x\nnot\n%x", name, reencode(), b)
			}
		}
		rankReq, err := decodeRankReq(b)
		check("rankReq", err, func() []byte { return encodeRankReq(rankReq) })
		rankResp, err := decodeRankResp(b)
		check("rankResp", err, func() []byte { return encodeRankResp(rankResp) })
		visitsOfReq, err := decodeVisitsOfReq(b)
		check("visitsOfReq", err, func() []byte { return encodeVisitsOfReq(visitsOfReq) })
		visitsOfResp, err := decodeVisitsOfResp(b)
		check("visitsOfResp", err, func() []byte { return encodeVisitsOfResp(visitsOfResp) })
		ingestReq, err := decodeIngestReq(b)
		check("ingestReq", err, func() []byte { return encodeIngestReq(ingestReq) })
		ingestResp, err := decodeIngestResp(b)
		check("ingestResp", err, func() []byte { return encodeIngestResp(ingestResp) })
	})
}

// TestWireFuzzCorpus keeps the committed FuzzWireDecode seed corpus in step
// with the encoders: one file per message of roundTrips, byte for byte.
// GEN_WIRE_CORPUS=1 rewrites it.
func TestWireFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzWireDecode")
	for name, msg := range roundTrips(t) {
		path := filepath.Join(dir, strings.ReplaceAll(name, "/", "-"))
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", msg)
		if os.Getenv("GEN_WIRE_CORPUS") == "1" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Errorf("%s is stale or missing (%v); regenerate with GEN_WIRE_CORPUS=1", path, err)
		}
	}
}
