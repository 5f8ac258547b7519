package store

import (
	"fmt"
	"strings"
)

const dirSafe = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-"

// EncodeDir maps a stream key to a filesystem-safe name: safe
// characters pass through, everything else (including '.' so "." and
// ".." cannot occur) is percent-escaped. fswal uses it for stream
// directory names, so every key maps to one directory that `hullcli
// replay` and tests can find.
func EncodeDir(key string) string {
	var b strings.Builder
	for i := 0; i < len(key); i++ {
		c := key[i]
		if strings.IndexByte(dirSafe, c) >= 0 {
			b.WriteByte(c)
		} else {
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	return b.String()
}

// DecodeDir inverts EncodeDir. ok is false for names this package never
// writes (stray files an operator dropped into the data directory).
func DecodeDir(name string) (string, bool) {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c == '%':
			if i+2 >= len(name) {
				return "", false
			}
			hi, lo := hexVal(name[i+1]), hexVal(name[i+2])
			if hi < 0 || lo < 0 {
				return "", false
			}
			b.WriteByte(byte(hi<<4 | lo))
			i += 2
		case strings.IndexByte(dirSafe, c) >= 0:
			b.WriteByte(c)
		default:
			return "", false
		}
	}
	return b.String(), true
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10
	default:
		return -1
	}
}
