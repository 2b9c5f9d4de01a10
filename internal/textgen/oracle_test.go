package textgen

import (
	"fmt"
	"testing"

	"repro/internal/dist"
)

// fmtUSAddress and fmtProductTitle are the fmt.Sprintf forms USAddress
// and ProductTitle replaced. Sprintf evaluates its arguments left to
// right, so they fix both the bytes and the order of the draws.
func fmtUSAddress(rng *dist.RNG) Address {
	return Address{
		Street: fmt.Sprintf("%d %s %s", 1+rng.Intn(9999),
			streetNames[rng.Intn(len(streetNames))],
			streetTypes[rng.Intn(len(streetTypes))]),
		City:  cities[rng.Intn(len(cities))],
		State: states[rng.Intn(len(states))],
		Zip:   fmt.Sprintf("%05d", 10000+rng.Intn(89999)),
	}
}

func fmtProductTitle(rng *dist.RNG) string {
	brands := []string{"Acme", "Zenith", "Polaris", "Vertex", "Nimbus", "Quanta", "Stellar", "Orion"}
	items := []string{"Wireless Headphones", "Coffee Maker", "Desk Lamp", "Backpack",
		"Water Bottle", "Bluetooth Speaker", "Notebook", "Running Shoes", "Blender", "Monitor Stand"}
	return fmt.Sprintf("%s %s Model %d", brands[rng.Intn(len(brands))],
		items[rng.Intn(len(items))], 100+rng.Intn(900))
}

// TestFormattersMatchFmtOracle: over thousands of draws, USAddress,
// Address.String and ProductTitle give the fmt forms' bytes and leave
// the RNG where the fmt forms leave it.
func TestFormattersMatchFmtOracle(t *testing.T) {
	got, want := dist.NewRNG(17), dist.NewRNG(17)
	for i := 0; i < 5000; i++ {
		a, o := USAddress(got), fmtUSAddress(want)
		if a != o {
			t.Fatalf("draw %d: USAddress = %+v, want %+v", i, a, o)
		}
		if s, w := a.String(), fmt.Sprintf("%s, %s, %s %s", o.Street, o.City, o.State, o.Zip); s != w {
			t.Fatalf("draw %d: Address.String = %q, want %q", i, s, w)
		}
		if p, w := ProductTitle(got), fmtProductTitle(want); p != w {
			t.Fatalf("draw %d: ProductTitle = %q, want %q", i, p, w)
		}
	}
	if got.Uint64() != want.Uint64() {
		t.Error("the RNG streams diverged")
	}
}
