// Package remote distributes a shard.Cluster across processes: a Server
// hosts one digitaltraces.DB shard behind an HTTP handler speaking the
// pull-based search protocol, and a Client implements shard.Backend over
// that protocol, so a coordinator composes remote shards through
// shard.Config.Backends exactly like in-process ones — same threshold-pruned
// gather, same generation-vector cache, same bit-identical answers (the
// exactness property suite runs unchanged against loopback remote shards).
//
// # RTT amortization
//
// Ported naively — one RPC per result — a gather round asking a shard for
// want results would cost want round trips, and the pruning's work savings
// would drown in network latency. The protocol therefore transports the
// shard.Stream contract itself: one pull request carries (streamID, offset,
// want, floor) and one response carries up to want ranked matches at or
// above the floor plus the admissible remainder bound, so an entire gather
// round against a shard is exactly one round trip. The open carries the
// stream's first pull and answers it with the handle, and a closed stream's
// release rides, as a list of IDs, on the client's next open or pull to the
// same shard, so a TopK costs at most three serial stages: the home open,
// the sibling opens at the home's k-th degree as their floor, and one pull
// round.
//
// # Idempotence
//
// Pulls are positional: the client names the offset it has received up to,
// and the server buffers everything a stream has emitted until the stream is
// released, so a re-sent pull (a retry after a lost response) returns
// byte-identical results instead of skipping a batch — floors only rise, so
// a re-served range is the one first served. A stream that ends on the shard
// releases its search at once and keeps only that buffer. A re-sent open
// opens a second stream over the same state; the orphan expires. Releasing
// is idempotent. Retries are bounded, only for transport-level failures, and
// only on idempotent calls — ingest is never retried.
//
// # Encoding
//
// Hot-path messages use a compact binary encoding (uvarint lengths and
// counts, 8-byte little-endian float64 degrees and nanosecond timestamps),
// each tagged with a leading type byte so a payload routed to the wrong
// endpoint is rejected instead of misparsed; decoding rejects truncated and
// trailing bytes, non-canonical uvarints and out-of-range pull arguments, so
// a decoded message re-encodes to exactly the bytes it came from.
// Control-plane messages (stats, health, errors) are JSON.
// Every response carries the shard's serving state (entities, snapshot
// generation, slot epoch), which the client caches so the coordinator's
// cache-version derivation costs no extra round trips; see the
// single-coordinator caveat on Client.
package remote

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"digitaltraces"
)

// ProtoVersion identifies the wire protocol; requests carry it in the
// X-Shard-Proto header and the server rejects mismatches, so a rolling
// upgrade fails loudly instead of misdecoding.
const ProtoVersion = "4"

// protoHeader is the HTTP header carrying ProtoVersion.
const protoHeader = "X-Shard-Proto"

// Message type tags — the first byte of every binary message.
const (
	tagOpenReq byte = iota + 1
	tagOpenResp
	tagPullReq
	tagPullResp
	tagVisitsOfReq
	tagVisitsOfResp
	tagIngestReq
	tagIngestResp
)

// Decode limits: corrupt length prefixes must not look like a 2^60-element
// allocation.
const (
	maxWireString = 1 << 16 // entity and venue names
	maxWireList   = 1 << 24 // visits, records or matches per message
)

// shardState is the serving state piggybacked on every response, binary and
// JSON alike: the coordinator's cache-version inputs (cluster cacheVersion
// reads entity count and snapshot generation per shard) kept fresh without
// dedicated round trips.
type shardState struct {
	Entities   uint64 `json:"entities"`
	Generation uint64 `json:"generation"`
	GenOK      bool   `json:"gen_ok"`
	// SlotEpoch is the newest slot-map epoch this shard has been told about
	// (Server.PushSlotEpoch / POST /shard/epoch). The coordinator piggybacks
	// it back so a *different*, staler coordinator wrong-routing through an
	// old slot map trips shard.Cluster's epoch check instead of answering
	// from a partition that migrated away.
	SlotEpoch uint64 `json:"slot_epoch"`
}

// openReq opens an incremental search stream and pulls its first Want
// matches at Floor. Entity != "" resolves that entity's visits server-side
// and opens over them in one round trip (the home-shard path), returning the
// visits in the response for sibling fan-out; otherwise Visits is the
// example snapshot to search by. Release lists streams the client is done
// with (on opens and pulls alike).
type openReq struct {
	Entity  string
	Visits  []digitaltraces.Visit
	Want    uint64
	Floor   float64
	Release []uint64
}

// openResp answers an open: the stream handle, the snapshot generation the
// stream pinned, (entity mode only) the resolved visits, and the first pull.
type openResp struct {
	StreamID   uint64
	Generation uint64
	Visits     []digitaltraces.Visit
	First      pullResp
}

// pullReq asks a stream for results: up to Want matches at or above Floor,
// starting at position Offset in the stream's emission order. Offset makes
// the request idempotent — the server re-serves any already-emitted range
// identically.
type pullReq struct {
	StreamID uint64
	Offset   uint64
	Want     uint64
	Floor    float64
	Release  []uint64
}

// pullResp carries one gather round's worth of a stream: the matches (in
// the shard's exact rank order), the admissible bound on everything after
// them, whether more may remain, and the stream's exact-degree-computation
// count so far.
type pullResp struct {
	Matches []digitaltraces.Match
	Bound   float64
	Live    bool
	Checked uint64
	State   shardState
}

type visitsOfReq struct {
	Entity string
}

type visitsOfResp struct {
	Visits []digitaltraces.Visit
	State  shardState
}

// ingestReq bulk-ingests visit records. Never retried.
type ingestReq struct {
	Records []digitaltraces.VisitRecord
}

// ingestResp reports the DB.AddVisits outcome: how many records were
// stored, and on failure the failing record's index plus the inner error
// text — the client reassembles the exact partial-failure error shape the
// cluster's merge expects.
type ingestResp struct {
	Stored    uint64
	FailIndex int64 // -1: all stored
	ErrMsg    string
	State     shardState
}

// --- encoding ---

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendF64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendI64(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendVisits(b []byte, vs []digitaltraces.Visit) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = appendString(b, v.Venue)
		b = appendI64(b, v.Start.UnixNano())
		b = appendI64(b, v.End.UnixNano())
	}
	return b
}

func appendRecords(b []byte, rs []digitaltraces.VisitRecord) []byte {
	b = binary.AppendUvarint(b, uint64(len(rs)))
	for _, r := range rs {
		b = appendString(b, r.Entity)
		b = appendString(b, r.Venue)
		b = appendI64(b, r.Start.UnixNano())
		b = appendI64(b, r.End.UnixNano())
	}
	return b
}

func appendMatches(b []byte, ms []digitaltraces.Match) []byte {
	b = binary.AppendUvarint(b, uint64(len(ms)))
	for _, m := range ms {
		b = appendString(b, m.Entity)
		b = appendF64(b, m.Degree)
	}
	return b
}

func appendState(b []byte, st shardState) []byte {
	b = binary.AppendUvarint(b, st.Entities)
	b = binary.AppendUvarint(b, st.Generation)
	b = appendBool(b, st.GenOK)
	return binary.AppendUvarint(b, st.SlotEpoch)
}

// appendPull encodes the fields every pull carries: want, floor and the
// piggybacked releases.
func appendPull(b []byte, want uint64, floor float64, release []uint64) []byte {
	b = binary.AppendUvarint(b, want)
	b = appendF64(b, floor)
	b = binary.AppendUvarint(b, uint64(len(release)))
	for _, id := range release {
		b = binary.AppendUvarint(b, id)
	}
	return b
}

// appendBatch encodes a pull's answer (the body of a pullResp, and the tail
// of an openResp).
func appendBatch(b []byte, m pullResp) []byte {
	b = appendMatches(b, m.Matches)
	b = appendF64(b, m.Bound)
	b = appendBool(b, m.Live)
	b = binary.AppendUvarint(b, m.Checked)
	return appendState(b, m.State)
}

func encodeOpenReq(m openReq) []byte {
	b := []byte{tagOpenReq}
	b = appendString(b, m.Entity)
	b = appendVisits(b, m.Visits)
	return appendPull(b, m.Want, m.Floor, m.Release)
}

func encodeOpenResp(m openResp) []byte {
	b := []byte{tagOpenResp}
	b = binary.AppendUvarint(b, m.StreamID)
	b = binary.AppendUvarint(b, m.Generation)
	b = appendVisits(b, m.Visits)
	return appendBatch(b, m.First)
}

func encodePullReq(m pullReq) []byte {
	b := []byte{tagPullReq}
	b = binary.AppendUvarint(b, m.StreamID)
	b = binary.AppendUvarint(b, m.Offset)
	return appendPull(b, m.Want, m.Floor, m.Release)
}

func encodePullResp(m pullResp) []byte {
	return appendBatch([]byte{tagPullResp}, m)
}

func encodeVisitsOfReq(m visitsOfReq) []byte {
	return appendString([]byte{tagVisitsOfReq}, m.Entity)
}

func encodeVisitsOfResp(m visitsOfResp) []byte {
	b := appendVisits([]byte{tagVisitsOfResp}, m.Visits)
	return appendState(b, m.State)
}

func encodeIngestReq(m ingestReq) []byte {
	return appendRecords([]byte{tagIngestReq}, m.Records)
}

func encodeIngestResp(m ingestResp) []byte {
	b := binary.AppendUvarint([]byte{tagIngestResp}, m.Stored)
	b = appendI64(b, m.FailIndex)
	b = appendString(b, m.ErrMsg)
	return appendState(b, m.State)
}

// --- decoding ---

// reader decodes a binary message with sticky-error semantics; finish
// rejects both truncated input (a read past the end fails) and trailing
// garbage (bytes left over after the last field).
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *reader) tag(want byte) {
	if r.err != nil {
		return
	}
	if len(r.b) == 0 {
		r.fail("empty message")
		return
	}
	if r.b[0] != want {
		r.fail("message tag %#x, want %#x", r.b[0], want)
		return
	}
	r.off = 1
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("truncated or oversized uvarint at byte %d", r.off)
		return 0
	}
	if n > 1 && r.b[r.off+n-1] == 0 {
		r.fail("non-canonical uvarint at byte %d", r.off) // a padded encoding of a smaller value
		return 0
	}
	r.off += n
	return v
}

func (r *reader) raw(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.b) {
		r.fail("truncated message: want %d bytes at %d, have %d", n, r.off, len(r.b)-r.off)
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) str() string {
	l := r.uvarint()
	if l > maxWireString {
		r.fail("string length %d exceeds the %d-byte wire cap", l, maxWireString)
		return ""
	}
	return string(r.raw(int(l)))
}

func (r *reader) f64() float64 {
	b := r.raw(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func (r *reader) i64() int64 {
	b := r.raw(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

func (r *reader) boolean() bool {
	b := r.raw(1)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("bool byte %#x", b[0])
		return false
	}
}

func (r *reader) count() int {
	n := r.uvarint()
	if n > maxWireList {
		r.fail("list length %d exceeds the %d-element wire cap", n, maxWireList)
		return 0
	}
	return int(n)
}

func (r *reader) visits() []digitaltraces.Visit {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	vs := make([]digitaltraces.Visit, 0, min(n, 4096))
	for i := 0; i < n; i++ {
		venue := r.str()
		start, end := r.i64(), r.i64()
		if r.err != nil {
			return nil
		}
		vs = append(vs, digitaltraces.Visit{Venue: venue, Start: time.Unix(0, start).UTC(), End: time.Unix(0, end).UTC()})
	}
	return vs
}

func (r *reader) records() []digitaltraces.VisitRecord {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	rs := make([]digitaltraces.VisitRecord, 0, min(n, 4096))
	for i := 0; i < n; i++ {
		entity, venue := r.str(), r.str()
		start, end := r.i64(), r.i64()
		if r.err != nil {
			return nil
		}
		rs = append(rs, digitaltraces.VisitRecord{Entity: entity, Venue: venue, Start: time.Unix(0, start).UTC(), End: time.Unix(0, end).UTC()})
	}
	return rs
}

func (r *reader) matches() []digitaltraces.Match {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	ms := make([]digitaltraces.Match, 0, min(n, 4096))
	for i := 0; i < n; i++ {
		entity := r.str()
		degree := r.f64()
		if r.err != nil {
			return nil
		}
		ms = append(ms, digitaltraces.Match{Entity: entity, Degree: degree})
	}
	return ms
}

// pull decodes appendPull's fields, capping them: want at the wire's list
// cap (no response could carry more), the floor to the degree range [0, 1].
func (r *reader) pull() (want uint64, floor float64, release []uint64) {
	if want = r.uvarint(); want > maxWireList {
		r.fail("want %d exceeds the %d-match wire cap", want, maxWireList)
	}
	if floor = r.f64(); !(floor >= 0 && floor <= 1) {
		r.fail("floor %v outside [0, 1]", floor)
	}
	n := r.count()
	for i := 0; i < n && r.err == nil; i++ {
		release = append(release, r.uvarint())
	}
	return want, floor, release
}

func (r *reader) batch() pullResp {
	return pullResp{Matches: r.matches(), Bound: r.f64(), Live: r.boolean(), Checked: r.uvarint(), State: r.state()}
}

func (r *reader) state() shardState {
	return shardState{
		Entities:   r.uvarint(),
		Generation: r.uvarint(),
		GenOK:      r.boolean(),
		SlotEpoch:  r.uvarint(),
	}
}

func (r *reader) finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%d trailing bytes after message", len(r.b)-r.off)
	}
	return nil
}

func decodeOpenReq(b []byte) (openReq, error) {
	r := reader{b: b}
	r.tag(tagOpenReq)
	m := openReq{Entity: r.str(), Visits: r.visits()}
	m.Want, m.Floor, m.Release = r.pull()
	return m, r.finish()
}

func decodeOpenResp(b []byte) (openResp, error) {
	r := reader{b: b}
	r.tag(tagOpenResp)
	m := openResp{StreamID: r.uvarint(), Generation: r.uvarint(), Visits: r.visits(), First: r.batch()}
	return m, r.finish()
}

func decodePullReq(b []byte) (pullReq, error) {
	r := reader{b: b}
	r.tag(tagPullReq)
	m := pullReq{StreamID: r.uvarint(), Offset: r.uvarint()}
	m.Want, m.Floor, m.Release = r.pull()
	return m, r.finish()
}

func decodePullResp(b []byte) (pullResp, error) {
	r := reader{b: b}
	r.tag(tagPullResp)
	m := r.batch()
	return m, r.finish()
}

func decodeVisitsOfReq(b []byte) (visitsOfReq, error) {
	r := reader{b: b}
	r.tag(tagVisitsOfReq)
	m := visitsOfReq{Entity: r.str()}
	return m, r.finish()
}

func decodeVisitsOfResp(b []byte) (visitsOfResp, error) {
	r := reader{b: b}
	r.tag(tagVisitsOfResp)
	m := visitsOfResp{Visits: r.visits(), State: r.state()}
	return m, r.finish()
}

func decodeIngestReq(b []byte) (ingestReq, error) {
	r := reader{b: b}
	r.tag(tagIngestReq)
	m := ingestReq{Records: r.records()}
	return m, r.finish()
}

func decodeIngestResp(b []byte) (ingestResp, error) {
	r := reader{b: b}
	r.tag(tagIngestResp)
	m := ingestResp{Stored: r.uvarint(), FailIndex: r.i64(), ErrMsg: r.str(), State: r.state()}
	return m, r.finish()
}
