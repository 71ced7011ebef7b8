package interfere

import (
	"testing"

	"cloudlb/internal/trace"
)

func TestChurnGeneratesTenants(t *testing.T) {
	eng, m := testMachine(2, 4)
	c := StartChurn(m, ChurnConfig{
		Cores:             []int{0, 1, 2, 3, 4, 5, 6, 7},
		ArrivalsPerSecond: 2,
		MeanDuration:      1,
		Seed:              1,
	})
	if err := eng.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	if c.Arrivals() < 10 {
		t.Fatalf("only %d arrivals over 20s at rate 2/s", c.Arrivals())
	}
	// Tenants consumed CPU somewhere.
	var busy float64
	for i := 0; i < m.NumCores(); i++ {
		b, _ := m.Core(i).ProcStat()
		busy += float64(b)
	}
	if busy <= 0 {
		t.Fatal("churn produced no CPU load")
	}
}

func TestChurnRespectsConcurrencyBound(t *testing.T) {
	eng, m := testMachine(1, 4)
	c := StartChurn(m, ChurnConfig{
		Cores:             []int{0, 1, 2, 3},
		ArrivalsPerSecond: 50, // far above what the bound admits
		MeanDuration:      5,
		MaxConcurrent:     2,
		Seed:              2,
	})
	if err := eng.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if c.Live() > 2 {
		t.Fatalf("%d live tenants, bound is 2", c.Live())
	}
	if c.Dropped() == 0 {
		t.Fatal("overloaded churn dropped nothing")
	}
}

func TestChurnDeterministic(t *testing.T) {
	run := func() (int, float64) {
		eng, m := testMachine(1, 4)
		c := StartChurn(m, ChurnConfig{
			Cores: []int{0, 1, 2, 3}, ArrivalsPerSecond: 3, MeanDuration: 0.5,
			Seed: 42,
		})
		if err := eng.RunUntil(15); err != nil {
			t.Fatal(err)
		}
		busy := 0.0
		for i := 0; i < 4; i++ {
			b, _ := m.Core(i).ProcStat()
			busy += float64(b)
		}
		return c.Arrivals(), busy
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Fatalf("churn not deterministic: (%d,%v) vs (%d,%v)", a1, b1, a2, b2)
	}
}

func TestChurnSeedMatters(t *testing.T) {
	run := func(seed int64) int {
		eng, m := testMachine(1, 2)
		c := StartChurn(m, ChurnConfig{
			Cores: []int{0, 1}, ArrivalsPerSecond: 3, MeanDuration: 0.5,
			Seed: seed,
		})
		if err := eng.RunUntil(12); err != nil {
			t.Fatal(err)
		}
		return c.Arrivals()
	}
	if run(1) == run(2) {
		t.Skip("seeds coincidentally matched arrival counts; acceptable")
	}
}

func TestChurnTraces(t *testing.T) {
	eng, m := testMachine(1, 2)
	rec := trace.NewRecorder()
	StartChurn(m, ChurnConfig{
		Cores: []int{0, 1}, ArrivalsPerSecond: 5, MeanDuration: 0.5,
		Seed: 4, Trace: rec,
	})
	if err := eng.RunUntil(8); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range rec.Segments() {
		if s.Kind == trace.KindBackground {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no background segments recorded")
	}
}

func TestChurnNeedsCores(t *testing.T) {
	_, m := testMachine(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("empty cores did not panic")
		}
	}()
	StartChurn(m, ChurnConfig{})
}
