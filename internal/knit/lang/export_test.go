package lang

// StripPos zeroes a parsed file's positions and name, so two parses
// can be compared structurally.
var StripPos = stripPos
