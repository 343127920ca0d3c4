package storage_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"digitaltraces/internal/adm"
	"digitaltraces/internal/core"
	"digitaltraces/internal/sighash"
	"digitaltraces/internal/spindex"
	"digitaltraces/internal/storage"
	"digitaltraces/internal/trace"
)

func randomStore(t testing.TB, seed int64, entities int) (*spindex.Index, *trace.Store) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ix := spindex.NewUniform(3, []int{3, 4})
	st := trace.NewStore(ix)
	const horizon = 48
	for e := trace.EntityID(0); int(e) < entities; e++ {
		var recs []trace.Record
		for j := 0; j < 1+rng.Intn(8); j++ {
			s := trace.Time(rng.Intn(horizon - 2))
			recs = append(recs, trace.Record{Entity: e, Base: spindex.BaseID(rng.Intn(ix.NumBase())), Start: s, End: s + 1 + trace.Time(rng.Intn(2))})
		}
		st.AddRecords(e, recs)
	}
	return ix, st
}

func buildDisk(t testing.TB, ix *spindex.Index, mem *trace.Store, opts storage.Options) *storage.Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.bin")
	ds, err := storage.Build(path, ix, mem, mem.Entities(), opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds
}

// TestRoundTrip: every entity read through the pool is identical to the
// in-memory original, at any pool capacity.
func TestRoundTrip(t *testing.T) {
	ix, mem := randomStore(t, 1, 40)
	for _, capBlocks := range []int{1, 2, 7, 0} {
		ds := buildDisk(t, ix, mem, storage.Options{BlockSize: 256, CapacityBlocks: capBlocks})
		for _, e := range mem.Entities() {
			got := ds.Get(e)
			want := mem.Get(e)
			for l := 1; l <= 3; l++ {
				if !reflect.DeepEqual(got.At(l), want.At(l)) {
					t.Fatalf("cap=%d entity %d level %d: %v != %v", capBlocks, e, l, got.At(l), want.At(l))
				}
			}
		}
	}
}

func TestGetUnknown(t *testing.T) {
	ix, mem := randomStore(t, 2, 5)
	ds := buildDisk(t, ix, mem, storage.Options{})
	if ds.Get(999) != nil {
		t.Error("unknown entity should return nil")
	}
	if ds.Len() != 5 {
		t.Errorf("Len = %d", ds.Len())
	}
	if len(ds.Entities()) != 5 {
		t.Errorf("Entities = %v", ds.Entities())
	}
	if ds.DataBytes() <= 0 || ds.TotalBlocks() <= 0 {
		t.Error("size accounting broken")
	}
}

func TestBuildErrors(t *testing.T) {
	ix, mem := randomStore(t, 3, 3)
	dir := t.TempDir()
	if _, err := storage.Build(filepath.Join(dir, "x.bin"), ix, mem, []trace.EntityID{999}, storage.Options{}); err == nil {
		t.Error("unknown entity accepted")
	}
	if _, err := storage.Build(filepath.Join(dir, "y.bin"), ix, mem, mem.Entities(), storage.Options{BlockSize: 8}); err == nil {
		t.Error("tiny block size accepted")
	}
}

// TestHitRateMonotoneInBudget: a repeated scan has a hit rate that does not
// decrease as the memory fraction grows, reaching ~1 at fraction 1.0.
func TestHitRateMonotoneInBudget(t *testing.T) {
	ix, mem := randomStore(t, 4, 120)
	ds := buildDisk(t, ix, mem, storage.Options{BlockSize: 256})
	scan := func() {
		for _, e := range ds.Entities() {
			ds.Get(e)
		}
	}
	prev := -1.0
	for _, frac := range []float64{0.1, 0.4, 0.7, 1.0} {
		ds.SetMemoryFraction(frac)
		scan() // warm
		ds2 := ds.Stats()
		_ = ds2
		// Reset stats after warmup, then measure a full scan.
		before := ds.Stats()
		scan()
		after := ds.Stats()
		hits := after.Hits - before.Hits
		misses := after.Misses - before.Misses
		rate := float64(hits) / float64(hits+misses)
		if rate < prev-0.05 {
			t.Errorf("hit rate fell from %.3f to %.3f at fraction %.1f", prev, rate, frac)
		}
		prev = rate
	}
	if prev < 0.999 {
		t.Errorf("full-memory hit rate = %.3f, want ~1", prev)
	}
}

func TestPoolStatsHitRate(t *testing.T) {
	var s storage.PoolStats
	if s.HitRate() != 0 {
		t.Error("empty stats hit rate should be 0")
	}
	s = storage.PoolStats{Hits: 3, Misses: 1}
	if s.HitRate() != 0.75 {
		t.Errorf("HitRate = %v", s.HitRate())
	}
}

// TestQueriesThroughDiskStore: a MinSigTree whose SequenceSource is the
// disk store answers queries identically to one backed by memory.
func TestQueriesThroughDiskStore(t *testing.T) {
	ix, mem := randomStore(t, 5, 60)
	fam, err := sighash.NewFamily(ix, 48, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	memTree, err := core.Build(ix, fam, mem, mem.Entities())
	if err != nil {
		t.Fatal(err)
	}
	// Leaf order approximated by entity order here; order only affects
	// locality, not correctness.
	ds := buildDisk(t, ix, mem, storage.Options{BlockSize: 512, CapacityBlocks: 3})
	diskTree, err := core.Build(ix, fam, ds, ds.Entities())
	if err != nil {
		t.Fatal(err)
	}
	m, err := adm.NewPaperADM(3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for e := trace.EntityID(0); e < 10; e++ {
		q := mem.Get(e)
		a, _, err := memTree.TopK(q, 5, m)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := diskTree.TopK(q, 5, m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("disk-backed results diverge for %d: %v vs %v", e, a, b)
		}
	}
	if ds.Stats().Misses == 0 {
		t.Error("tiny pool should have missed at least once")
	}
}

// TestConcurrentReaders: concurrent Gets through a tiny pool race-free and
// correct (run with -race in CI).
func TestConcurrentReaders(t *testing.T) {
	ix, mem := randomStore(t, 6, 30)
	ds := buildDisk(t, ix, mem, storage.Options{BlockSize: 256, CapacityBlocks: 2})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				e := trace.EntityID((w*13 + i) % 30)
				got := ds.Get(e)
				if got == nil || got.Entity != e {
					t.Errorf("bad read for %d", e)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestEncodeDecode(t *testing.T) {
	ix, mem := randomStore(t, 7, 3)
	s := mem.Get(0)
	buf := storage.EncodeSequences(s)
	got, err := storage.DecodeSequences(ix, buf)
	if err != nil {
		t.Fatal(err)
	}
	for l := 1; l <= 3; l++ {
		if !reflect.DeepEqual(got.At(l), s.At(l)) {
			t.Fatalf("level %d mismatch", l)
		}
	}
	// Corruption is detected.
	if _, err := storage.DecodeSequences(ix, buf[:4]); err == nil {
		t.Error("short buffer accepted")
	}
	bad := append([]byte(nil), buf...)
	bad[4] = 9 // wrong level count
	if _, err := storage.DecodeSequences(ix, bad); err == nil {
		t.Error("wrong level count accepted")
	}
	// A record that claims more base cells than it holds is refused before
	// the claim sizes an allocation: the sequence section has no checksum,
	// and a shard server takes images off the network.
	for _, claim := range []uint32{1 << 24, math.MaxUint32} {
		lie := append([]byte(nil), buf[:8+4*ix.Height()]...)
		binary.LittleEndian.PutUint32(lie[8+4*(ix.Height()-1):], claim)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := storage.DecodeSequences(ix, lie)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("a %d-byte record claiming %d base cells accepted", len(lie), claim)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("a %d-byte record claiming %d base cells allocated %d bytes before it was refused", len(lie), claim, n)
		}
	}
}
