package wire

import (
	"strings"
	"testing"
)

func TestLoadKeystoreCommentsAndBlanks(t *testing.T) {
	in := "# comment\n\n01 6b6579\n   \n# more\n02 00ff\n"
	ks, err := LoadKeystore(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) != 2 {
		t.Fatalf("entries %d, want 2", len(ks))
	}
	if k, _ := ks.Lookup("01"); string(k) != "key" {
		t.Errorf("decoded key %q", k)
	}
}

func TestLoadKeystoreRejectsMalformed(t *testing.T) {
	bad := []string{
		"justanid\n",
		"01 not-hex\n",
		"01 \n",
		" 6b6579\n",
		"01 6b6579\n01 6b6579\n", // duplicate
	}
	for _, in := range bad {
		if _, err := LoadKeystore(strings.NewReader(in)); err == nil {
			t.Errorf("malformed keystore %q accepted", in)
		}
	}
}
