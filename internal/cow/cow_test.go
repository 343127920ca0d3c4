package cow

import (
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"testing"
)

// generation is one Map under test beside the plain map it must read as.
type generation struct {
	m      *Map[int, int]
	model  map[int]int
	frozen bool
}

// requireReadsAs checks every way to read g against its model: Get on every
// key in the model's range and on both sides of it, Flat, Writes, and the
// levels' geometric shrink.
func requireReadsAs(t *testing.T, label string, g *generation, keys int) {
	t.Helper()
	for k := -1; k <= keys; k++ {
		v, ok := g.m.Get(k)
		want, wantOK := g.model[k]
		if ok != wantOK || v != want {
			t.Fatalf("%s: Get(%d) = %d, %t; want %d, %t", label, k, v, ok, want, wantOK)
		}
	}
	if flat := g.m.Flat(); !maps.Equal(flat, g.model) {
		t.Fatalf("%s: Flat = %v, want %v", label, flat, g.model)
	}
	if g.m.Writes() < len(g.model) {
		t.Fatalf("%s: Writes = %d for %d keys", label, g.m.Writes(), len(g.model))
	}
	for i := 1; i < len(g.m.levels); i++ {
		if below, above := len(g.m.levels[i-1]), len(g.m.levels[i]); below <= 2*above {
			t.Fatalf("%s: level %d holds %d entries over level %d's %d: the sizes do not shrink geometrically", label, i, above, i-1, below)
		}
	}
}

// TestMapMatchesModel runs seeded random programs of Set, Get and Derive —
// sibling derives from one parent included, and Sets on frozen generations,
// which must panic — against a plain map per generation. After every step
// every generation made so far is read again and must still read exactly as
// its model, so a write leaking into a parent, a sibling or a merged level
// shows up at the step that made it.
func TestMapMatchesModel(t *testing.T) {
	const keys = 48
	merges := 0
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		gens := []*generation{{m: &Map[int, int]{}, model: map[int]int{}}}
		for step := 0; step < 160; step++ {
			g := gens[rng.Intn(len(gens))]
			if rng.Intn(2) == 0 {
				g = gens[len(gens)-1] // mostly extend the newest: chains get deep
			}
			label := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(10); {
			case op < 7:
				k, v := rng.Intn(keys), rng.Int()
				if g.frozen {
					func() {
						defer func() {
							if recover() == nil {
								t.Fatalf("%s: Set on a frozen generation did not panic", label)
							}
						}()
						g.m.Set(k, v)
					}()
					continue
				}
				g.m.Set(k, v)
				g.model[k] = v
			default:
				before := len(g.m.levels)
				g.frozen = true
				child := g.m.Derive()
				if len(g.m.own) > 0 && len(child.levels) <= before {
					merges++
				}
				gens = append(gens, &generation{m: &child, model: maps.Clone(g.model)})
			}
			for gi, h := range gens {
				requireReadsAs(t, fmt.Sprintf("%s gen %d", label, gi), h, keys)
			}
		}
	}
	if merges == 0 {
		t.Fatal("no Derive merged levels: the programs checked nothing of the merge")
	}
}

// TestMapDeriveUnderReaders: readers of a generation see it unchanged while
// the writer derives from it — siblings too — and writes the children, which
// is how a published index generation is read while the next one is folded.
// Run under -race, it also shows Derive writes nothing a reader reads.
func TestMapDeriveUnderReaders(t *testing.T) {
	const keys = 256
	parent, model := &Map[int, int]{}, map[int]int{}
	for round := 0; round < 8; round++ {
		for i := 0; i < 40; i++ {
			k := (round*97 + i*31) % keys
			parent.Set(k, round*1000+i)
			model[k] = round*1000 + i
		}
		var wg sync.WaitGroup
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for pass := 0; pass < 20; pass++ {
					for k := 0; k < keys; k++ {
						if v, ok := parent.Get(k); ok != hasKey(model, k) || v != model[k] {
							t.Errorf("round %d: reader saw Get(%d) = %d, %t; want %d", round, k, v, ok, model[k])
							return
						}
					}
				}
			}()
		}
		var next Map[int, int]
		for sibling := 0; sibling < 3; sibling++ {
			child := parent.Derive()
			for i := 0; i < 20; i++ {
				child.Set((sibling*13+i)%keys, -1-i)
			}
			next = child
		}
		wg.Wait()
		parent = &next
		model = maps.Clone(model)
		for i := 0; i < 20; i++ {
			model[(2*13+i)%keys] = -1 - i
		}
		for k := 0; k < keys; k++ {
			if v, ok := parent.Get(k); ok != hasKey(model, k) || v != model[k] {
				t.Fatalf("round %d: the last sibling reads Get(%d) = %d, %t; want %d", round, k, v, ok, model[k])
			}
		}
	}
}

func hasKey(m map[int]int, k int) bool {
	_, ok := m[k]
	return ok
}
