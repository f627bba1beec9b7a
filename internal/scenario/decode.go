package scenario

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"time"
)

// Strict decoding of the generic parse tree into Scenario, driven by
// the `yaml:"key"` tags on the scenario types. Fields decode in
// declaration order and every mapping checks its key set: an unknown
// key is an error that names the full dotted path and suggests the
// nearest tagged key, so a typo'd scenario fails loudly at load instead
// of silently dropping a fault.
//
// A null or omitted value leaves the field's zero value (a nil pointer
// for an optional section); `,required` makes omission an error. A
// `want:"..."` tag on a string sequence names what its elements must
// be. Types with a spelling of their own implement valueDecoder.

// valueDecoder is implemented by the types that parse their own
// spelling (times, rates, sequence ranges, windows).
type valueDecoder interface {
	decodeValue(v any, path string) error
}

var durationType = reflect.TypeOf(time.Duration(0))

func decodeScenario(doc any) (*Scenario, error) {
	sc := &Scenario{}
	if err := decodeStruct(reflect.ValueOf(sc).Elem(), doc, ""); err != nil {
		return nil, err
	}
	return sc, nil
}

// decodeStruct fills the tagged fields of rv from a mapping, then
// rejects the keys no field consumed.
func decodeStruct(rv reflect.Value, v any, path string) error {
	m, ok := v.(map[string]any)
	if !ok {
		return fmt.Errorf("%s: want a mapping, got %s", path, typeName(v))
	}
	t := rv.Type()
	keys := make([]string, 0, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		key, opt, _ := strings.Cut(f.Tag.Get("yaml"), ",")
		keys = append(keys, key)
		fv := m[key]
		if fv == nil {
			if opt == "required" {
				return fmt.Errorf("missing required section %q", key)
			}
			continue
		}
		if err := decodeValue(rv.Field(i), fv, childPath(path, key), f.Tag.Get("want")); err != nil {
			return err
		}
	}
	var unknown []string
	for k := range m {
		if !slices.Contains(keys, k) {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	sort.Strings(unknown)
	msg := fmt.Sprintf("unknown key %q", childPath(path, unknown[0]))
	if hint := nearest(unknown[0], keys); hint != "" {
		msg += fmt.Sprintf(" (did you mean %q?)", hint)
	}
	return fmt.Errorf("%s", msg)
}

// decodeValue decodes one value (never skipped as null: sequence
// elements must all be present) into rv. want names a string's kind
// in errors ("a runtime name"); empty means "a string".
func decodeValue(rv reflect.Value, v any, path, want string) error {
	if d, ok := rv.Addr().Interface().(valueDecoder); ok {
		return d.decodeValue(v, path)
	}
	switch {
	case rv.Type() == durationType:
		ts, err := parseTimeSpec(v, path)
		if err != nil || ts.IsZero() {
			return err
		}
		if ts.kind != timeAbs {
			return fmt.Errorf("%s: want an absolute duration, got %q", path, ts)
		}
		rv.SetInt(int64(ts.abs))
	case rv.Kind() == reflect.Pointer:
		rv.Set(reflect.New(rv.Type().Elem()))
		return decodeValue(rv.Elem(), v, path, want)
	case rv.Kind() == reflect.Struct:
		return decodeStruct(rv, v, path)
	case rv.Kind() == reflect.Slice:
		seq, ok := v.([]any)
		if !ok {
			return fmt.Errorf("%s: want a sequence, got %s", path, typeName(v))
		}
		if len(seq) == 0 { // an empty sequence stays nil, like an omitted one
			return nil
		}
		rv.Set(reflect.MakeSlice(rv.Type(), len(seq), len(seq)))
		for i, ev := range seq {
			if err := decodeValue(rv.Index(i), ev, fmt.Sprintf("%s[%d]", path, i), want); err != nil {
				return err
			}
		}
	case rv.Kind() == reflect.String:
		s, ok := v.(string)
		if !ok {
			if want == "" {
				want = "a string"
			}
			return fmt.Errorf("%s: want %s, got %s", path, want, typeName(v))
		}
		rv.SetString(s)
	case rv.Kind() == reflect.Int || rv.Kind() == reflect.Int64:
		n, ok := asInt(v)
		if !ok {
			return fmt.Errorf("%s: want an integer, got %s", path, renderScalar(v))
		}
		rv.SetInt(n)
	case rv.Kind() == reflect.Float64:
		f, ok := v.(float64)
		if !ok {
			return fmt.Errorf("%s: want a number, got %s", path, renderScalar(v))
		}
		if !finite(f) {
			return fmt.Errorf("%s: want a finite number, got %s", path, renderScalar(v))
		}
		rv.SetFloat(f)
	default:
		panic(fmt.Sprintf("scenario: no decoder for %s (%s)", rv.Type(), path))
	}
	return nil
}

// asInt accepts a whole number that fits in 64 bits.
func asInt(v any) (int64, bool) {
	f, ok := v.(float64)
	if !ok || f != math.Trunc(f) || f < -(1<<63) || f >= 1<<63 {
		return 0, false
	}
	return int64(f), true
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

func childPath(path, key string) string {
	if path == "" {
		return key
	}
	return path + "." + key
}

// SeqRange bounds the uniform per-batch sequence length. Scenarios
// spell it `seq: [16, 128]` or as a {min, max} mapping.
type SeqRange struct {
	Min int `yaml:"min"`
	Max int `yaml:"max"`
}

func (r *SeqRange) decodeValue(v any, path string) error {
	switch sv := v.(type) {
	case []any:
		if len(sv) != 2 {
			return fmt.Errorf("%s: want [min, max], got %d elements", path, len(sv))
		}
		lo, ok1 := asInt(sv[0])
		hi, ok2 := asInt(sv[1])
		if !ok1 || !ok2 {
			return fmt.Errorf("%s: want two integers, got %v", path, sv)
		}
		*r = SeqRange{Min: int(lo), Max: int(hi)}
		return nil
	case map[string]any:
		return decodeStruct(reflect.ValueOf(r).Elem(), v, path)
	default:
		return fmt.Errorf("%s: want [min, max], got %s", path, typeName(v))
	}
}

// Window bounds generated start instants [lo, hi), spelled as a
// two-element sequence of times.
type Window [2]TimeSpec

func (w *Window) decodeValue(v any, path string) error {
	seq, ok := v.([]any)
	if !ok || len(seq) != 2 {
		return fmt.Errorf("%s: want [lo, hi]", path)
	}
	for i, tv := range seq {
		ts, err := parseTimeSpec(tv, fmt.Sprintf("%s[%d]", path, i))
		if err != nil {
			return err
		}
		w[i] = ts
	}
	return nil
}

func typeName(v any) string {
	switch v.(type) {
	case map[string]any:
		return "a mapping"
	case []any:
		return "a sequence"
	case string:
		return "a string"
	case float64:
		return "a number"
	case bool:
		return "a bool"
	case nil:
		return "null"
	default:
		return fmt.Sprintf("%T", v)
	}
}

func renderScalar(v any) string {
	if s, ok := v.(string); ok {
		return fmt.Sprintf("%q", s)
	}
	return fmt.Sprintf("%v (%s)", v, typeName(v))
}

// nearest returns the valid key with the smallest edit distance, when
// that distance is small enough to be a plausible typo.
func nearest(got string, valid []string) string {
	best, bestDist := "", 3
	for _, k := range valid {
		if d := editDistance(got, k); d < bestDist {
			best, bestDist = k, d
		}
	}
	return best
}

func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
