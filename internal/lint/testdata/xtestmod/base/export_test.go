package base

// Secret exists only when base is compiled with its internal test files,
// as it is for its external test.
var Secret = secret
