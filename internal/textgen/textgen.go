package textgen

import (
	"strconv"

	"repro/internal/dist"
)

// BusinessName returns a plausible business name for the given domain
// key (one of the keys accepted by bizNouns; unknown keys fall back to a
// generic noun set). Names are drawn deterministically from rng.
func BusinessName(rng *dist.RNG, domain string) string {
	nouns, ok := bizNouns[domain]
	if !ok {
		nouns = bizNouns["defaultdomain"]
	}
	switch rng.Intn(4) {
	case 0: // "Golden Kitchen"
		return bizAdjectives[rng.Intn(len(bizAdjectives))] + " " + nouns[rng.Intn(len(nouns))]
	case 1: // "Chen's Grill"
		return lastNames[rng.Intn(len(lastNames))] + "'s " + nouns[rng.Intn(len(nouns))]
	case 2: // "Thai Table" (restaurants get cuisine; others get city)
		if domain == "restaurants" {
			return cuisines[rng.Intn(len(cuisines))] + " " + nouns[rng.Intn(len(nouns))]
		}
		return cities[rng.Intn(len(cities))] + " " + nouns[rng.Intn(len(nouns))]
	default: // "Fairview Golden Inn"
		return cities[rng.Intn(len(cities))] + " " +
			bizAdjectives[rng.Intn(len(bizAdjectives))] + " " + nouns[rng.Intn(len(nouns))]
	}
}

// Writer is the destination for the streaming prose writers: both
// *bytes.Buffer and *strings.Builder satisfy it, as does htmlx's
// escaping adapter, so generated text can stream straight into a
// rendered page without intermediate strings.
type Writer interface {
	WriteString(s string) (int, error)
	WriteByte(c byte) error
}

// WritePersonName streams a random full name, drawing identically to
// PersonName.
func WritePersonName(w Writer, rng *dist.RNG) {
	w.WriteString(firstNames[rng.Intn(len(firstNames))])
	w.WriteByte(' ')
	w.WriteString(lastNames[rng.Intn(len(lastNames))])
}

// Address holds a simple US postal address.
type Address struct {
	Street string
	City   string
	State  string
	Zip    string
}

// String renders the address on one line.
func (a Address) String() string {
	return a.Street + ", " + a.City + ", " + a.State + " " + a.Zip
}

// USAddress returns a random US address. The draws run left to right:
// house number, street name, street type, city, state, ZIP (always five
// digits). Street and ZIP share one allocation.
func USAddress(rng *dist.RNG) Address {
	var buf [64]byte
	b := strconv.AppendInt(buf[:0], int64(1+rng.Intn(9999)), 10)
	b = append(append(b, ' '), streetNames[rng.Intn(len(streetNames))]...)
	b = append(append(b, ' '), streetTypes[rng.Intn(len(streetTypes))]...)
	street := len(b)
	a := Address{City: cities[rng.Intn(len(cities))], State: states[rng.Intn(len(states))]}
	s := string(strconv.AppendInt(b, int64(10000+rng.Intn(89999)), 10))
	a.Street, a.Zip = s[:street], s[street:]
	return a
}

// WriteReview streams a review paragraph, drawing and emitting
// byte-identically to Review but without building the string — the
// renderer's zero-allocation path.
func WriteReview(w Writer, rng *dist.RNG, entityName string, sentences int) {
	if sentences < 3 {
		sentences = 3
	}
	w.WriteString(reviewOpeners[rng.Intn(len(reviewOpeners))])
	w.WriteByte(' ')
	positive := rng.Float64() < 0.65
	pool := reviewPositive
	if !positive {
		pool = reviewNegative
	}
	w.WriteString(pool[rng.Intn(len(pool))])
	w.WriteString(". ")
	for i := 0; i < sentences-2; i++ {
		switch rng.Intn(5) {
		case 0:
			w.WriteString(sharedFiller[rng.Intn(len(sharedFiller))])
		case 1:
			w.WriteString("At ")
			w.WriteString(entityName)
			w.WriteString(", ")
			w.WriteString(pool[rng.Intn(len(pool))])
			w.WriteByte('.')
		default:
			writeCapitalized(w, pool[rng.Intn(len(pool))])
			w.WriteByte('.')
		}
		w.WriteByte(' ')
	}
	w.WriteString(reviewClosers[rng.Intn(len(reviewClosers))])
}

// WriteBoilerplate streams boilerplate text, drawing and emitting
// byte-identically to Boilerplate.
func WriteBoilerplate(w Writer, rng *dist.RNG, sentences int) {
	if sentences < 1 {
		sentences = 1
	}
	for i := 0; i < sentences; i++ {
		if i > 0 {
			w.WriteByte(' ')
		}
		if rng.Float64() < 0.2 {
			w.WriteString(sharedFiller[rng.Intn(len(sharedFiller))])
		} else {
			w.WriteString(boilerplateSentences[rng.Intn(len(boilerplateSentences))])
		}
	}
}

// BookTitle returns a plausible book title.
func BookTitle(rng *dist.RNG) string {
	patterns := []func() string{
		func() string {
			return "The " + bizAdjectives[rng.Intn(len(bizAdjectives))] + " " +
				streetNames[rng.Intn(len(streetNames))]
		},
		func() string {
			return "A History of " + cities[rng.Intn(len(cities))]
		},
		func() string {
			return firstNames[rng.Intn(len(firstNames))] + " and the " +
				bizAdjectives[rng.Intn(len(bizAdjectives))] + " " + cuisines[rng.Intn(len(cuisines))%len(cuisines)]
		},
		func() string {
			return "Notes from " + cities[rng.Intn(len(cities))] + " " +
				streetTypes[rng.Intn(len(streetTypes))]
		},
	}
	return patterns[rng.Intn(len(patterns))]()
}

// MovieTitle returns a plausible movie title.
func MovieTitle(rng *dist.RNG) string {
	switch rng.Intn(3) {
	case 0:
		return "The " + bizAdjectives[rng.Intn(len(bizAdjectives))] + " " + streetNames[rng.Intn(len(streetNames))]
	case 1:
		return cities[rng.Intn(len(cities))] + " Nights"
	default:
		return "Return to " + cities[rng.Intn(len(cities))]
	}
}

// ProductTitle returns a plausible retail product title.
func ProductTitle(rng *dist.RNG) string {
	brands := []string{"Acme", "Zenith", "Polaris", "Vertex", "Nimbus", "Quanta", "Stellar", "Orion"}
	items := []string{"Wireless Headphones", "Coffee Maker", "Desk Lamp", "Backpack",
		"Water Bottle", "Bluetooth Speaker", "Notebook", "Running Shoes", "Blender", "Monitor Stand"}
	return brands[rng.Intn(len(brands))] + " " + items[rng.Intn(len(items))] +
		" Model " + strconv.Itoa(100+rng.Intn(900))
}

// writeCapitalized streams capitalize(s) without allocating: the first
// byte is ASCII-upper-cased (matching ToUpper on a one-byte string for
// the ASCII sentence pools).
func writeCapitalized(w Writer, s string) {
	if s == "" {
		return
	}
	c := s[0]
	if c >= 'a' && c <= 'z' {
		c -= 'a' - 'A'
	}
	w.WriteByte(c)
	w.WriteString(s[1:])
}
