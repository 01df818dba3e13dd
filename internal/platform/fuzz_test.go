package platform

import "testing"

// FuzzParseMemorySize checks that parsing a size onto the AWS grid never
// panics and that whatever it accepts is grid-valid and round-trips through
// String().
func FuzzParseMemorySize(f *testing.F) {
	aws := AWSLambda().Grid()
	for _, seed := range []string{
		"256", "512MB", "3008MB", "128", "0", "-128", "100",
		"99999999999999999999", "128.5", "NaNMB", "", "MB", " 512 ",
		"512MBx", "5 12", "+256",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := aws.Parse(s)
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		if !aws.Valid(m) {
			t.Fatalf("aws.Parse(%q) = %v, outside the AWS grid", s, m)
		}
		again, err := aws.Parse(m.String())
		if err != nil {
			t.Fatalf("round trip of %v: %v", m, err)
		}
		if again != m {
			t.Fatalf("round trip of %v gave %v", m, again)
		}
	})
}

// FuzzGridParse extends the property to provider grids: any accepted size
// must be deployable on the grid that accepted it.
func FuzzGridParse(f *testing.F) {
	for _, seed := range []string{"768", "4096MB", "1536", "banana", "-5"} {
		f.Add(seed)
	}
	grids := []Grid{
		AWSLambda().Grid(), GCPCloudFunctions().Grid(), AzureFunctions().Grid(),
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, g := range grids {
			m, err := g.Parse(s)
			if err != nil {
				continue
			}
			if !g.Valid(m) {
				t.Fatalf("grid accepted %q as %v but calls it invalid", s, m)
			}
		}
	})
}
