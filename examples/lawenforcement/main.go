// Law-enforcement scenario (Section 1.2 of the paper): given a person of
// interest, find the individuals most closely associated with them from
// location data — "the behavior patterns of criminals before, during and
// after the crime" leave a co-presence footprint.
//
// The program synthesizes a city of 2,000 devices moving under the
// individual-mobility model, then plants two accomplices who shadow the
// suspect's movements (with noise) around three "meeting" windows. A top-k
// query for the suspect must surface the accomplices ahead of 2,000
// bystanders, while pruning most of the population.
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

	const population = 2000
	db, err := digitaltraces.SyntheticCity(digitaltraces.CityConfig{
		Side:     16,
		Entities: population,
		Days:     14,
		Seed:     42,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The suspect is entity-7. Plant two accomplices who shadow the suspect
	// around the crime: nightly planning sessions at a safe house through
	// the two weeks, the scene itself on day 5, and a hand-off afterwards.
	// A gang's digital traces co-occur for tens of hours — that sustained
	// overlap, not a single encounter, is what separates association from
	// chance co-presence (Section 1.2 of the paper).
	rng := rand.New(rand.NewSource(7))
	suspect := "entity-7"
	type meeting struct {
		venue string
		hour  int
		span  int
	}
	var meetings []meeting
	for day := 1; day <= 12; day++ {
		meetings = append(meetings, meeting{digitaltraces.VenueName(33), day*24 + 18, 5}) // safe house, nightly
	}
	meetings = append(meetings,
		meeting{digitaltraces.VenueName(101), 5*24 + 2, 2},  // the scene, day 5, 2am
		meeting{digitaltraces.VenueName(210), 9*24 + 14, 2}, // hand-off, day 9
	)
	for _, who := range []string{"accomplice-x", "accomplice-y"} {
		for _, m := range meetings {
			jitter := rng.Intn(2)
			start := digitaltraces.TimeAt(m.hour + jitter)
			end := digitaltraces.TimeAt(m.hour + m.span)
			if err := db.AddVisit(who, m.venue, start, end); err != nil {
				log.Fatal(err)
			}
		}
		// Noise: each accomplice also has an ordinary life.
		for i := 0; i < 20; i++ {
			h := rng.Intn(13*24 - 2)
			v := digitaltraces.VenueName(rng.Intn(256))
			if err := db.AddVisit(who, v, digitaltraces.TimeAt(h), digitaltraces.TimeAt(h+1+rng.Intn(2))); err != nil {
				log.Fatal(err)
			}
		}
	}
	// The suspect attends the same meetings.
	for _, m := range meetings {
		if err := db.AddVisit(suspect, m.venue, digitaltraces.TimeAt(m.hour), digitaltraces.TimeAt(m.hour+m.span)); err != nil {
			log.Fatal(err)
		}
	}

	start := time.Now()
	if err := db.BuildIndex(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d entities (%d venues) in %v\n",
		db.NumEntities(), db.NumVenues(), time.Since(start).Round(time.Millisecond))

	matches, stats, err := db.TopK(suspect, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npersons of interest most associated with %s:\n", suspect)
	for i, m := range matches {
		tag := ""
		if m.Entity == "accomplice-x" || m.Entity == "accomplice-y" {
			tag = "  ← planted accomplice"
		}
		fmt.Printf("  %d. %-14s degree %.4f%s\n", i+1, m.Entity, m.Degree, tag)
	}
	fmt.Printf("\nchecked %d of %d entities (pruned %.1f%%) in %v\n",
		stats.Checked, db.NumEntities()-1, stats.Pruned*100, stats.Elapsed.Round(time.Microsecond))

	if matches[0].Entity != "accomplice-x" && matches[0].Entity != "accomplice-y" {
		log.Fatalf("expected an accomplice at rank 1, got %s", matches[0].Entity)
	}
	if matches[1].Entity != "accomplice-x" && matches[1].Entity != "accomplice-y" && matches[2].Entity != "accomplice-x" && matches[2].Entity != "accomplice-y" {
		log.Fatalf("expected the second accomplice within the top 3")
	}
	fmt.Println("\nboth planted accomplices surfaced at the top — investigation can proceed.")
}
