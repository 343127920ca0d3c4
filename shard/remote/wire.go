// Package remote distributes a shard.Cluster across processes: a Server
// hosts one digitaltraces.DB shard behind an HTTP handler speaking the shard
// protocol, and a Client implements shard.Backend over that protocol, so a
// coordinator composes remote shards through shard.Config.Backends exactly
// like in-process ones — same one-call gather, same generation-vector cache,
// same bit-identical answers (the exactness property suite runs unchanged
// against loopback remote shards).
//
// # One round trip per shard
//
// A cluster query's whole part on one shard is one request: POST /shard/rank
// carries shard.Backend.Rank's arguments (the entity or the example visits,
// want, floor and the owned-slot mask) and one response
// carries the complete reply — the ranked matches, the remainder bound,
// whether the cap ended it, the work, the snapshot generation and, for a
// query by entity, the entity's visits. A TopK therefore costs two serial
// stages at most: the home shard's call, then one concurrent wave over the
// others. The server keeps nothing between calls.
//
// # Idempotence
//
// A rank call is stateless and reads only a pinned snapshot, so a re-sent
// one (a retry after a lost response) answers the same question again.
// Retries are bounded, only for transport-level failures, and only on
// idempotent calls — ingest is never retried.
//
// # Encoding
//
// Hot-path messages use a compact binary encoding (uvarint lengths and
// counts, 8-byte little-endian float64 degrees and nanosecond timestamps),
// each tagged with a leading type byte so a payload routed to the wrong
// endpoint is rejected instead of misparsed; decoding rejects truncated and
// trailing bytes, non-canonical uvarints and out-of-range rank arguments, so
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
	"digitaltraces/shard"
)

// ProtoVersion identifies the wire protocol; requests carry it in the
// X-Shard-Proto header and the server rejects mismatches, so a rolling
// upgrade fails loudly instead of misdecoding.
const ProtoVersion = "6"

// protoHeader is the HTTP header carrying ProtoVersion.
const protoHeader = "X-Shard-Proto"

// Message type tags — the first byte of every binary message.
const (
	tagRankReq byte = iota + 1
	tagRankResp
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

// rankResp answers a rank request: the shard's reply (DB.Rank) and its
// serving state.
type rankResp struct {
	digitaltraces.Ranked
	State shardState
}

type visitsOfReq struct {
	Entity string
}

type visitsOfResp struct {
	Visits []digitaltraces.Visit
	State  shardState
}

// ingestReq bulk-ingests visit records, each with its entity's global
// ordinal (DB.AddKeyedVisits). Never retried.
type ingestReq struct {
	Records []digitaltraces.VisitRecord
	Keys    []uint32
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

func appendRecords(b []byte, rs []digitaltraces.VisitRecord, keys []uint32) []byte {
	b = binary.AppendUvarint(b, uint64(len(rs)))
	for i, r := range rs {
		b = appendString(b, r.Entity)
		b = appendString(b, r.Venue)
		b = appendI64(b, r.Start.UnixNano())
		b = appendI64(b, r.End.UnixNano())
		b = binary.AppendUvarint(b, uint64(keys[i]))
	}
	return b
}

func appendMatches(b []byte, ms []digitaltraces.Match, keys []uint32) []byte {
	b = binary.AppendUvarint(b, uint64(len(ms)))
	for i, m := range ms {
		b = appendString(b, m.Entity)
		b = appendF64(b, m.Degree)
		b = binary.AppendUvarint(b, uint64(keys[i]))
	}
	return b
}

func appendState(b []byte, st shardState) []byte {
	b = binary.AppendUvarint(b, st.Entities)
	b = binary.AppendUvarint(b, st.Generation)
	b = appendBool(b, st.GenOK)
	return binary.AppendUvarint(b, st.SlotEpoch)
}

// maskBytes is the wire length of a slot mask.
const maskBytes = shard.NumSlots / 8

func encodeRankReq(m shard.RankRequest) []byte {
	b := []byte{tagRankReq}
	b = appendString(b, m.Entity)
	b = appendVisits(b, m.Visits)
	b = binary.AppendUvarint(b, uint64(m.Want))
	b = appendF64(b, m.Floor)
	b = binary.AppendUvarint(b, maskBytes)
	for _, w := range m.Owned {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

func encodeRankResp(m rankResp) []byte {
	b := appendVisits([]byte{tagRankResp}, m.Visits)
	b = appendMatches(b, m.Matches, m.Keys)
	b = appendF64(b, m.Bound)
	b = appendBool(b, m.Capped)
	b = binary.AppendUvarint(b, uint64(m.Checked))
	b = binary.AppendUvarint(b, m.Generation)
	return appendState(b, m.State)
}

func encodeVisitsOfReq(m visitsOfReq) []byte {
	return appendString([]byte{tagVisitsOfReq}, m.Entity)
}

func encodeVisitsOfResp(m visitsOfResp) []byte {
	b := appendVisits([]byte{tagVisitsOfResp}, m.Visits)
	return appendState(b, m.State)
}

func encodeIngestReq(m ingestReq) []byte {
	return appendRecords([]byte{tagIngestReq}, m.Records, m.Keys)
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

func (r *reader) records() ([]digitaltraces.VisitRecord, []uint32) {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil, nil
	}
	rs, keys := make([]digitaltraces.VisitRecord, 0, min(n, 4096)), make([]uint32, 0, min(n, 4096))
	for i := 0; i < n; i++ {
		entity, venue := r.str(), r.str()
		start, end, key := r.i64(), r.i64(), r.key()
		if r.err != nil {
			return nil, nil
		}
		rs = append(rs, digitaltraces.VisitRecord{Entity: entity, Venue: venue, Start: time.Unix(0, start).UTC(), End: time.Unix(0, end).UTC()})
		keys = append(keys, key)
	}
	return rs, keys
}

func (r *reader) matches() ([]digitaltraces.Match, []uint32) {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil, nil
	}
	ms, keys := make([]digitaltraces.Match, 0, min(n, 4096)), make([]uint32, 0, min(n, 4096))
	for i := 0; i < n; i++ {
		entity, degree, key := r.str(), r.f64(), r.key()
		if r.err != nil {
			return nil, nil
		}
		ms = append(ms, digitaltraces.Match{Entity: entity, Degree: degree})
		keys = append(keys, key)
	}
	return ms, keys
}

// key decodes a tie key, refusing one past 32 bits.
func (r *reader) key() uint32 {
	k := r.uvarint()
	if k > math.MaxUint32 {
		r.fail("tie key %d exceeds 32 bits", k)
	}
	return uint32(k)
}

// mask decodes a slot mask, refusing any length but the slot space's.
func (r *reader) mask() (m shard.SlotMask) {
	if n := r.uvarint(); n != maskBytes && r.err == nil {
		r.fail("slot mask of %d bytes, want %d", n, maskBytes)
	}
	if b := r.raw(maskBytes); b != nil {
		for i := range m {
			m[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
	}
	return m
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

// decodeRankReq decodes a rank request, capping its arguments: want to
// [1, the wire's list cap] (no response could carry more), the floor to the
// degree range [0, 1], NaN refused.
func decodeRankReq(b []byte) (shard.RankRequest, error) {
	r := reader{b: b}
	r.tag(tagRankReq)
	m := shard.RankRequest{Entity: r.str(), Visits: r.visits()}
	if want := r.uvarint(); r.err == nil && (want < 1 || want > maxWireList) {
		r.fail("want %d outside [1, %d]", want, maxWireList)
	} else {
		m.Want = int(want)
	}
	if m.Floor = r.f64(); r.err == nil && !(m.Floor >= 0 && m.Floor <= 1) {
		r.fail("floor %v outside [0, 1]", m.Floor)
	}
	m.Owned = r.mask()
	return m, r.finish()
}

func decodeRankResp(b []byte) (rankResp, error) {
	r := reader{b: b}
	r.tag(tagRankResp)
	var m rankResp
	m.Visits = r.visits()
	m.Matches, m.Keys = r.matches()
	m.Bound, m.Capped, m.Checked, m.Generation = r.f64(), r.boolean(), int(r.uvarint()), r.uvarint()
	m.State = r.state()
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
	var m ingestReq
	m.Records, m.Keys = r.records()
	return m, r.finish()
}

func decodeIngestResp(b []byte) (ingestResp, error) {
	r := reader{b: b}
	r.tag(tagIngestResp)
	m := ingestResp{Stored: r.uvarint(), FailIndex: r.i64(), ErrMsg: r.str(), State: r.state()}
	return m, r.finish()
}
