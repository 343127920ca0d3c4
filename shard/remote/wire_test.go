package remote

// Wire protocol tests: every message round-trips bit-exactly, and decoding
// rejects truncation, trailing garbage, wrong tags and corrupt length
// prefixes instead of misparsing them.

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"digitaltraces"
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

	or := openReq{Entity: "e007", Want: 11}
	msgs["openReq/entity"] = encodeOpenReq(or)
	if got, err := decodeOpenReq(msgs["openReq/entity"]); err != nil || got.Entity != "e007" || got.Visits != nil || got.Want != 11 || got.Floor != 0 || got.Release != nil {
		t.Fatalf("openReq entity round trip: %+v, %v", got, err)
	}
	or2 := openReq{Visits: wireVisits(), Want: 3, Floor: 0.375, Release: []uint64{1, 300, 1 << 40}}
	msgs["openReq/visits"] = encodeOpenReq(or2)
	if got, err := decodeOpenReq(msgs["openReq/visits"]); err != nil || len(got.Visits) != 3 || got.Visits[2].Venue != or2.Visits[2].Venue || !got.Visits[0].Start.Equal(or2.Visits[0].Start) ||
		got.Want != 3 || got.Floor != 0.375 || !slices.Equal(got.Release, or2.Release) {
		t.Fatalf("openReq visits round trip: %+v, %v", got, err)
	}

	osr := openResp{StreamID: 42, Generation: 7, Visits: wireVisits(), First: pullResp{
		Matches: wireMatches(), Bound: 0.25, Live: true, Checked: 12, State: shardState{Entities: 10, Generation: 7, GenOK: true},
	}}
	msgs["openResp"] = encodeOpenResp(osr)
	if got, err := decodeOpenResp(msgs["openResp"]); err != nil || got.StreamID != 42 || got.Generation != 7 || len(got.Visits) != 3 ||
		!slices.Equal(got.First.Matches, osr.First.Matches) || got.First.Bound != 0.25 || !got.First.Live || got.First.Checked != 12 || got.First.State != osr.First.State {
		t.Fatalf("openResp round trip: %+v, %v", got, err)
	}

	pr := pullReq{StreamID: 42, Offset: 17, Want: 8, Floor: 0.5, Release: []uint64{41}}
	msgs["pullReq"] = encodePullReq(pr)
	if got, err := decodePullReq(msgs["pullReq"]); err != nil || got.StreamID != 42 || got.Offset != 17 || got.Want != 8 || got.Floor != 0.5 || !slices.Equal(got.Release, pr.Release) {
		t.Fatalf("pullReq round trip: %+v, %v", got, err)
	}

	psr := pullResp{Matches: wireMatches(), Bound: 0.75, Live: true, Checked: 99, State: shardState{Entities: 5, Generation: 2, GenOK: true}}
	msgs["pullResp"] = encodePullResp(psr)
	got, err := decodePullResp(msgs["pullResp"])
	if err != nil || len(got.Matches) != 4 || got.Bound != 0.75 || !got.Live || got.Checked != 99 || got.State != psr.State {
		t.Fatalf("pullResp round trip: %+v, %v", got, err)
	}
	for i, m := range got.Matches {
		if m != psr.Matches[i] {
			t.Fatalf("pullResp match %d: %+v != %+v (degrees must survive bit-exactly)", i, m, psr.Matches[i])
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
	}}
	msgs["ingestReq"] = encodeIngestReq(ir)
	if got, err := decodeIngestReq(msgs["ingestReq"]); err != nil || len(got.Records) != 2 || got.Records[1] != ir.Records[1] {
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
	case "openReq/entity", "openReq/visits":
		_, err = decodeOpenReq(b)
	case "openResp":
		_, err = decodeOpenResp(b)
	case "pullReq":
		_, err = decodePullReq(b)
	case "pullResp":
		_, err = decodePullResp(b)
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
	for _, name := range []string{"pullReq", "pullResp", "openResp", "ingestResp"} {
		if err := decodeAny(name, junk); err == nil {
			t.Errorf("%s: garbage accepted", name)
		}
	}
	// Pull arguments out of range: a want no response could carry, floors
	// outside the degree range, and a padded uvarint.
	for _, m := range []pullReq{{Want: maxWireList + 1}, {Want: math.MaxUint64}, {Floor: -0.5}, {Floor: 1.5}, {Floor: math.NaN()}} {
		if _, err := decodePullReq(encodePullReq(m)); err == nil {
			t.Errorf("pull request %+v accepted", m)
		}
		if _, err := decodeOpenReq(encodeOpenReq(openReq{Want: m.Want, Floor: m.Floor})); err == nil {
			t.Errorf("open request with want %d, floor %v accepted", m.Want, m.Floor)
		}
	}
	if _, err := decodeVisitsOfReq([]byte{tagVisitsOfReq, 0x81, 0x00, 'e'}); err == nil {
		t.Error("non-canonical uvarint length accepted")
	}
}

// TestWireBoolStrict pins that bools reject bytes other than 0/1 (a
// corrupted flag must not silently read as true).
func TestWireBoolStrict(t *testing.T) {
	msg := encodePullResp(pullResp{Bound: 0.5, Live: true, Checked: 1})
	// The Live bool sits right after the empty match list and the bound.
	idx := 1 + 1 + 8 // tag, count=0, bound
	if msg[idx] != 1 {
		t.Fatalf("test layout drifted: byte %d = %#x, want Live=1", idx, msg[idx])
	}
	msg[idx] = 2
	if _, err := decodePullResp(msg); err == nil {
		t.Error("bool byte 2 accepted")
	}
}

// TestWireFloatBitExact pins degree transport through the wire encoding for
// adversarial bit patterns (negative zero, subnormals, 1-ulp-below-1).
func TestWireFloatBitExact(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, math.Nextafter(1, 0), math.SmallestNonzeroFloat64, 0.1 + 0.2}
	for _, v := range vals {
		ms := []digitaltraces.Match{{Entity: "e", Degree: v}}
		got, err := decodePullResp(encodePullResp(pullResp{Matches: ms, Bound: v, Live: false}))
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
	tags := []byte{tagOpenReq, tagOpenResp, tagPullReq, tagPullResp,
		tagVisitsOfReq, tagVisitsOfResp, tagIngestReq, tagIngestResp}
	seen := map[byte]bool{}
	for _, tag := range tags {
		if seen[tag] {
			t.Fatalf("duplicate message tag %#x", tag)
		}
		seen[tag] = true
	}
	if len(seen) != 8 {
		t.Fatalf("expected 8 distinct tags, got %d", len(seen))
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
		openReq, err := decodeOpenReq(b)
		check("openReq", err, func() []byte { return encodeOpenReq(openReq) })
		openResp, err := decodeOpenResp(b)
		check("openResp", err, func() []byte { return encodeOpenResp(openResp) })
		pullReq, err := decodePullReq(b)
		check("pullReq", err, func() []byte { return encodePullReq(pullReq) })
		pullResp, err := decodePullResp(b)
		check("pullResp", err, func() []byte { return encodePullResp(pullResp) })
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
