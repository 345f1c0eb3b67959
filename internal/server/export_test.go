package server

// RaceEnabled says whether the race detector is on, for the external
// test package.
const RaceEnabled = raceEnabled
