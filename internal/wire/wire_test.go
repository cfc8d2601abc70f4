package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

func TestConsumeUvarint(t *testing.T) {
	for _, tc := range []struct {
		name     string
		data     []byte
		max      uint64
		want     uint64
		wantRest int
		wantErr  error
	}{
		{"empty", nil, 10, 0, 0, ErrTruncated},
		{"one byte", []byte{7}, 10, 7, 0, nil},
		{"exactly at bound", []byte{10, 0xAA}, 10, 10, 1, nil},
		{"one over bound", []byte{11}, 10, 0, 0, ErrOversize},
		{"two bytes", []byte{0x80, 0x01, 0xAA}, 128, 128, 1, nil},
		{"continuation bit then end", []byte{0x80}, 1 << 20, 0, 0, ErrTruncated},
		{"more than 64 bits", bytes.Repeat([]byte{0xFF}, 11), ^uint64(0), 0, 0, ErrTruncated},
		{"largest value", binary.AppendUvarint(nil, ^uint64(0)), ^uint64(0), ^uint64(0), 0, nil},
	} {
		got, rest, err := ConsumeUvarint(tc.data, tc.max)
		if !errors.Is(err, tc.wantErr) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.wantErr)
			continue
		}
		if err != nil {
			if rest != nil {
				t.Errorf("%s: a failed consume returned %d remaining bytes", tc.name, len(rest))
			}
			continue
		}
		if got != tc.want || len(rest) != tc.wantRest {
			t.Errorf("%s: got %d with %d bytes left, want %d with %d", tc.name, got, len(rest), tc.want, tc.wantRest)
		}
	}
}

func TestConsumeBytesAndString(t *testing.T) {
	for _, tc := range []struct {
		name     string
		data     []byte
		max      uint64
		want     string
		wantRest int
		wantErr  error
	}{
		{"empty input", nil, 8, "", 0, ErrTruncated},
		{"empty field", []byte{0}, 8, "", 0, nil},
		{"empty field at bound zero", []byte{0, 0xAA}, 0, "", 1, nil},
		{"field", AppendString(nil, "abc"), 8, "abc", 0, nil},
		{"field then more", append(AppendString(nil, "abc"), 0xAA, 0xBB), 8, "abc", 2, nil},
		{"length exactly at bound", AppendString(nil, "abcdefgh"), 8, "abcdefgh", 0, nil},
		{"length one over bound", AppendString(nil, "abcdefghi"), 8, "", 0, ErrOversize},
		{"oversize length with no payload", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}, 8, "", 0, ErrOversize},
		{"payload one byte short", AppendString(nil, "abc")[:3], 8, "", 0, ErrTruncated},
		{"length only", []byte{3}, 8, "", 0, ErrTruncated},
		{"length varint cut", []byte{0x80}, 8, "", 0, ErrTruncated},
	} {
		field, rest, err := ConsumeBytes(tc.data, tc.max)
		str, strRest, strErr := ConsumeString(tc.data, tc.max)
		if !errors.Is(err, tc.wantErr) || !errors.Is(strErr, tc.wantErr) {
			t.Errorf("%s: ConsumeBytes err = %v, ConsumeString err = %v, want %v", tc.name, err, strErr, tc.wantErr)
			continue
		}
		if err != nil {
			if field != nil || rest != nil || str != "" || strRest != nil {
				t.Errorf("%s: a failed consume returned data", tc.name)
			}
			continue
		}
		if string(field) != tc.want || str != tc.want || len(rest) != tc.wantRest || len(strRest) != tc.wantRest {
			t.Errorf("%s: got %q / %q with %d / %d bytes left, want %q with %d",
				tc.name, field, str, len(rest), len(strRest), tc.want, tc.wantRest)
		}
	}

	// ConsumeBytes aliases its input; ConsumeString copies out of it.
	data := AppendBytes(nil, []byte("abc"))
	field, _, _ := ConsumeBytes(data, 8)
	str, _, _ := ConsumeString(data, 8)
	data[1] = 'X'
	if string(field) != "Xbc" {
		t.Errorf("ConsumeBytes field = %q after the input changed, want an alias of it", field)
	}
	if str != "abc" {
		t.Errorf("ConsumeString = %q after the input changed, want a copy", str)
	}
}

func TestConsumeUint64(t *testing.T) {
	eight := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	for _, tc := range []struct {
		name     string
		data     []byte
		wantRest int
		wantErr  error
	}{
		{"empty", nil, 0, ErrTruncated},
		{"seven bytes", eight[:7], 0, ErrTruncated},
		{"exactly eight", eight, 0, nil},
		{"nine bytes", append(append([]byte{}, eight...), 9), 1, nil},
	} {
		got, rest, err := ConsumeUint64(tc.data)
		if !errors.Is(err, tc.wantErr) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.wantErr)
			continue
		}
		if err == nil && (got != 0x0102030405060708 || len(rest) != tc.wantRest) {
			t.Errorf("%s: got %#x with %d bytes left, want 0x0102030405060708 with %d", tc.name, got, len(rest), tc.wantRest)
		}
	}
}

func TestConsumeVarint(t *testing.T) {
	for _, want := range []int64{0, -1, 1, -1 << 63, 1<<63 - 1} {
		got, rest, err := ConsumeVarint(append(binary.AppendVarint(nil, want), 0xAA))
		if err != nil || got != want || len(rest) != 1 {
			t.Errorf("ConsumeVarint(%d) = %d with %d bytes left, err %v", want, got, len(rest), err)
		}
	}
	for _, bad := range [][]byte{nil, {0x80}, bytes.Repeat([]byte{0xFF}, 11)} {
		if _, _, err := ConsumeVarint(bad); !errors.Is(err, ErrTruncated) {
			t.Errorf("ConsumeVarint(%x): err = %v, want ErrTruncated", bad, err)
		}
	}
}
