// Quickstart: declare a venue hierarchy, record a handful of visits, and
// ask "who is most closely associated with alice?".
package main

import (
	"fmt"
	"log"
	"time"

	"digitaltraces"
)

func main() {
	log.SetFlags(0)

	// A 3-level hierarchy: district → street → venue.
	h := digitaltraces.NewHierarchy(3)
	h.AddPath("downtown", "king-street", "cafe-a")
	h.AddPath("downtown", "king-street", "cafe-b")
	h.AddPath("downtown", "bay-street", "gym")
	h.AddPath("uptown", "eglinton", "mall")

	db, err := digitaltraces.NewDB(h)
	if err != nil {
		log.Fatal(err)
	}

	t0 := time.Date(2018, 12, 1, 9, 0, 0, 0, time.UTC)
	visit := func(who, where string, startHour, hours int) {
		s := t0.Add(time.Duration(startHour) * time.Hour)
		if err := db.AddVisit(who, where, s, s.Add(time.Duration(hours)*time.Hour)); err != nil {
			log.Fatal(err)
		}
	}

	// Alice and Bob overlap for two hours at cafe-a, and again at the gym.
	visit("alice", "cafe-a", 0, 3)
	visit("bob", "cafe-a", 1, 3)
	visit("alice", "gym", 26, 2)
	visit("bob", "gym", 26, 1)
	// Carol frequents the same street but a different cafe.
	visit("carol", "cafe-b", 0, 2)
	visit("carol", "cafe-b", 24, 2)
	// Dave lives across town.
	visit("dave", "mall", 0, 4)
	visit("dave", "mall", 24, 4)

	matches, stats, err := db.TopK("alice", 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("entities most closely associated with alice:")
	for i, m := range matches {
		fmt.Printf("  %d. %-6s degree %.4f\n", i+1, m.Entity, m.Degree)
	}
	fmt.Printf("(checked %d candidate entities in %v; pruned %.0f%%)\n",
		stats.Checked, stats.Elapsed.Round(time.Microsecond), stats.Pruned*100)

	// Query-by-example: a hypothetical person seen at cafe-a this morning.
	example := []digitaltraces.Visit{{Venue: "cafe-a", Start: t0, End: t0.Add(2 * time.Hour)}}
	byExample, _, err := db.TopKByExample(example, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("closest matches to the example trace (cafe-a, 2h):")
	for i, m := range byExample {
		fmt.Printf("  %d. %-6s degree %.4f\n", i+1, m.Entity, m.Degree)
	}
}
