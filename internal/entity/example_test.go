package entity_test

import (
	"fmt"
	"log"

	"repro/internal/entity"
)

// ExampleISBN10To13 converts the canonical example ISBN between forms,
// validating check digits on both ends.
func ExampleISBN10To13() {
	isbn13, err := entity.ISBN10To13("0306406152")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(isbn13, entity.ValidISBN13(isbn13))
	fmt.Println(string(entity.AppendISBN13(nil, isbn13)))
	// Output:
	// 9780306406157 true
	// 978-0-3064-0615-7
}

// ExampleNormalizePhone shows the §3.2 phone canonicalization: every
// common display format maps to the same ten-digit key.
func ExampleNormalizePhone() {
	for _, s := range []string{
		"(415) 555-1234",
		"415.555.1234",
		"+1 415 555 1234",
		"(415) 155-1234", // invalid NANP exchange
	} {
		p, ok := entity.NormalizePhone(s)
		fmt.Printf("%-17s -> %q %v\n", s, p, ok)
	}
	// Output:
	// (415) 555-1234    -> "4155551234" true
	// 415.555.1234      -> "4155551234" true
	// +1 415 555 1234   -> "4155551234" true
	// (415) 155-1234    -> "" false
}
