package telemetry

import (
	"strconv"
	"strings"
)

// Sum reads Prometheus text as WritePrometheus writes it and adds up
// every sample of the metric name whose labels include each pair in
// match, in any order; a sample may carry labels match does not name.
// found is false when no sample matched. Comment lines and families
// whose name only begins with name are skipped.
func Sum(text, name string, match Labels) (sum float64, found bool) {
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		i := strings.LastIndexByte(rest, ' ')
		if !ok || i < 0 || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		v, err := strconv.ParseFloat(rest[i+1:], 64)
		// With the braces turned into commas, every pair is ,k="v", — a
		// quote inside a value is escaped, so no value can fake one.
		labels := "," + strings.Trim(rest[:i], "{}") + ","
		if err != nil || !hasPairs(labels, match) {
			continue
		}
		sum, found = sum+v, true
	}
	return sum, found
}

func hasPairs(labels string, match Labels) bool {
	for _, kv := range match {
		if !strings.Contains(labels, ","+kv[0]+`="`+escapeLabelValue(kv[1])+`",`) {
			return false
		}
	}
	return true
}
