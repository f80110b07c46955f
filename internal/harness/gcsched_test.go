package harness

import "testing"

// TestGCSchedModelAcceptance is the gate behind `make gcsched-smoke`:
// on prototype.Run's virtual clock (real engine, real pacer),
// background-paced GC must cut the client-observed p999 by at least 30%
// against the synchronous watermark baseline without giving up more
// than 2% write amplification, for every placement policy, at the
// experiment's default high-utilization operating point.
func TestGCSchedModelAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("model acceptance sweep is not a -short test")
	}
	sc := SmallScale()
	rows, err := gcschedModel(sc, []string{"sepgc", "sepbit", PolicyADAPT}, DefaultGCSchedOptions(sc))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(rows); i += 2 {
		syncRow, bgRow := rows[i], rows[i+1]
		pol := syncRow.Policy
		if syncRow.P999 <= 0 || syncRow.WA <= 1 {
			t.Fatalf("%s sync baseline is vacuous: %+v", pol, syncRow)
		}
		t.Logf("%s: p999 %v -> %v, WA %.3f -> %.3f, emergencies %d",
			pol, syncRow.P999, bgRow.P999, syncRow.WA, bgRow.WA, bgRow.EmergencyRuns)
		if float64(bgRow.P999) > 0.7*float64(syncRow.P999) {
			t.Errorf("%s: background p999 %v is not >=30%% below sync %v",
				pol, bgRow.P999, syncRow.P999)
		}
		if bgRow.WA > 1.02*syncRow.WA {
			t.Errorf("%s: background WA %.3f regresses >2%% over sync %.3f",
				pol, bgRow.WA, syncRow.WA)
		}
		if bgRow.EmergencyRuns > 2 {
			t.Errorf("%s: %d emergency cycles under paced GC; the pacer is not keeping up",
				pol, bgRow.EmergencyRuns)
		}
	}
}
