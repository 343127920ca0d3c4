// Streaming scenario (Section 4.2.3 of the paper): digital traces arrive
// continuously — new devices appear, known devices move — and the index
// absorbs them incrementally while queries keep running.
//
// The program indexes an initial day of data, then streams six more days
// hour by hour; every visit is folded into the index incrementally before
// AddVisit returns, and after each day a standing watchlist query re-runs,
// showing how the answer evolves as a tracked device's companion changes
// behavior mid-week.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"digitaltraces"
)

func main() {
	log.SetFlags(0)

	const days = 7
	h := digitaltraces.NewHierarchy(3)
	venues := make([]string, 0, 36)
	for d := 0; d < 3; d++ {
		for s := 0; s < 3; s++ {
			for v := 0; v < 4; v++ {
				name := fmt.Sprintf("venue-%d-%d-%d", d, s, v)
				h.AddPath(fmt.Sprintf("district-%d", d), fmt.Sprintf("street-%d-%d", d, s), name)
				venues = append(venues, name)
			}
		}
	}
	epoch := time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)
	db, err := digitaltraces.NewDB(h, digitaltraces.WithEpoch(epoch))
	if err != nil {
		log.Fatal(err)
	}
	at := func(hour int) time.Time { return epoch.Add(time.Duration(hour) * time.Hour) }

	rng := rand.New(rand.NewSource(3))
	addRandomDay := func(who string, day int) {
		for i := 0; i < 3; i++ {
			hr := day*24 + rng.Intn(22)
			if err := db.AddVisit(who, venues[rng.Intn(len(venues))], at(hr), at(hr+1+rng.Intn(2))); err != nil {
				log.Fatal(err)
			}
		}
	}

	// Day 0: 60 devices with random traces; "target" and "shadow" do not
	// overlap yet.
	for d := 0; d < 60; d++ {
		addRandomDay(fmt.Sprintf("device-%02d", d), 0)
	}
	if err := db.AddVisit("target", venues[0], at(9), at(11)); err != nil {
		log.Fatal(err)
	}
	if err := db.AddVisit("shadow", venues[20], at(9), at(11)); err != nil {
		log.Fatal(err)
	}
	if err := db.BuildIndex(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("day 0 indexed: %d entities\n", db.NumEntities())

	for day := 1; day < days; day++ {
		start := time.Now()
		// The crowd keeps moving.
		for d := 0; d < 60; d++ {
			addRandomDay(fmt.Sprintf("device-%02d", d), day)
		}
		// From day 3 on, the shadow starts following the target.
		tv := venues[(day*5)%len(venues)]
		hr := day*24 + 10
		if err := db.AddVisit("target", tv, at(hr), at(hr+3)); err != nil {
			log.Fatal(err)
		}
		if day >= 3 {
			if err := db.AddVisit("shadow", tv, at(hr+1), at(hr+3)); err != nil {
				log.Fatal(err)
			}
		} else {
			addRandomDay("shadow", day)
		}
		ingest := time.Since(start)
		matches, stats, err := db.TopK("target", 3)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("day %d: ingest+fold %v | top-3 for target: ", day, ingest.Round(time.Microsecond))
		for i, m := range matches {
			if i > 0 {
				fmt.Print(", ")
			}
			fmt.Printf("%s(%.3f)", m.Entity, m.Degree)
		}
		fmt.Printf("  [checked %d]\n", stats.Checked)
	}

	matches, _, err := db.TopK("target", 1)
	if err != nil {
		log.Fatal(err)
	}
	if matches[0].Entity != "shadow" {
		log.Fatalf("expected the shadow to top the watchlist by day %d, got %s", days-1, matches[0].Entity)
	}
	fmt.Println("\nthe shadow surfaced as the target's top associate — flagged for review.")
}
