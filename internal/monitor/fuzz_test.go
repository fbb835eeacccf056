package monitor

import "testing"

// FuzzParseLedger hardens the central accounting parser against mirrored
// content from a compromised or corrupted agent.
func FuzzParseLedger(f *testing.F) {
	f.Add([]byte("2010-02-19T12:10:00Z OK d41d8cd98f00b204e9800998ecf8427e\n"))
	f.Add([]byte("ERROR boom\n"))
	f.Add([]byte(""))
	f.Add([]byte("2010-02-19T12:10:00Z BAD 900150983cd24fb0d6963f7d28e17f72 (1 of 20)\n"))
	f.Add([]byte("\x00\x01\x02 not text"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sum, err := ParseLedger(data)
		if err != nil {
			return
		}
		if sum.OK < 0 || sum.Bad < 0 || sum.Errors < 0 {
			t.Fatal("negative counts")
		}
		if (sum.OK+sum.Bad+sum.Errors) > 0 && !sum.LastAt.IsZero() && sum.LastAt.Before(sum.FirstAt) {
			t.Fatal("time bounds inverted")
		}
	})
}

// FuzzDecodeNamed hardens the protocol's name framing.
func FuzzDecodeNamed(f *testing.F) {
	f.Add(encodeNamed("md5sums.log", []byte("payload")))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		name, rest, err := decodeNamed(data)
		if err != nil {
			return
		}
		if len(name)+len(rest)+2 != len(data) {
			t.Fatal("decoded parts do not account for the payload")
		}
	})
}
