package service

import (
	"bytes"
	"testing"
)

// FuzzCanonicalize feeds arbitrary bytes through the submission path's
// spec checks — DecodeSpec, Canonicalize, admit — none of which may
// panic. A spec that canonicalizes must be a fixed point of
// Canonicalize with an unchanged cache Key, so equal simulations share
// one key however they were spelled.
func FuzzCanonicalize(f *testing.F) {
	for _, seed := range []string{
		`{"alg":"simple","d":3,"n":8}`,
		`{"alg":"simple","d":2,"n":16,"k":2,"realLocalSort":true,"altEstimator":true}`,
		`{"alg":"torussort","d":2,"n":8,"faults":0.1}`,
		`{"alg":"route","d":2,"n":80,"perm":"reversal"}`,
		`{"alg":"select","d":2,"n":8,"target":5}`,
		`{"alg":"cliqueroute","n":600,"k":3,"faults":0.02,"faultSeed":7}`,
		`{"alg":"traffic","d":2,"n":8,"load":"k:4","inject":"trickle:0.001"}`,
		`{"alg":"traffic","d":6,"n":1000000,"load":"lk:l=2,k=3"}`,
		`{"alg":"copy","topology":"torus","d":1,"n":4}`,
		`{"alg":"full","d":2,"n":8,"deadline_ms":5,"patience":-1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		canon, err := spec.Canonicalize()
		if err != nil {
			return
		}
		_ = admit(canon)
		again, err := canon.Canonicalize()
		if err != nil {
			t.Fatalf("canonical spec %+v rejected on the second pass: %v", canon, err)
		}
		if again != canon {
			t.Fatalf("Canonicalize is not a fixed point:\n  first:  %+v\n  second: %+v", canon, again)
		}
		if again.Key() != canon.Key() {
			t.Fatalf("cache key changed on the second pass for %+v", canon)
		}
	})
}
